package bench

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

// TestFig7LeavesNothingParked: every experiment point closes its cluster
// once its results are read, so a Figure 7 sweep leaves no goroutine
// behind and no simulation reachable from one, sequential or sharded.
// (Before points closed their clusters, the full sweep left 541
// goroutines and ~67 MB of live heap pinned.)
func TestFig7LeavesNothingParked(t *testing.T) {
	settled := func(atMost int) (int, uint64) {
		// Sweep workers (SetParallelism > 1) and shard workers signal
		// done just before they return: poll a count above atMost for
		// up to a second.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > atMost && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return runtime.NumGoroutine(), ms.HeapAlloc
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			g0, h0 := settled(math.MaxInt)
			withShards(t, shards, func() {
				if _, _, err := Fig7(nil, []int{64, 1024}); err != nil {
					t.Fatal(err)
				}
			})
			g1, h1 := settled(g0)
			if g1 > g0 {
				t.Errorf("goroutines after Fig7 = %d, want at most the %d before it", g1, g0)
			}
			if h1 > h0+512<<10 {
				t.Errorf("live heap after Fig7 = %d KB, want within 512 KB of the %d KB before it", h1>>10, h0>>10)
			}
		})
	}
}
