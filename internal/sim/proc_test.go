package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Zero-allocation guards for the proc blocking path: a wake-up schedules
// the proc's bound dispatch, the blocking reason is a fixed string plus
// the Signal, and the waiter queue keeps its backing array. Each guard
// drives the kernel one event at a time once the procs are warm.

// TestZeroAllocSignalWaitRoundTrip: two procs hand control back and forth
// through Signal and Wait; one round trip is two wake-ups.
func TestZeroAllocSignalWaitRoundTrip(t *testing.T) {
	k := NewKernel()
	ping, pong := k.NewSignal("ping"), k.NewSignal("pong")
	k.Go("pong", func(p *Proc) {
		for {
			p.Wait(ping)
			pong.Signal()
		}
	})
	k.Go("ping", func(p *Proc) {
		for {
			ping.Signal()
			p.Wait(pong)
		}
	})
	roundTrip := func() {
		if !k.step() || !k.step() {
			t.Fatal("ping-pong ran out of events")
		}
	}
	for i := 0; i < 8; i++ {
		roundTrip()
	}
	if got := testing.AllocsPerRun(200, roundTrip); got != 0 {
		t.Errorf("Signal→Wait round trip allocates %.1f allocs/op, want 0", got)
	}
	k.Close()
}

// TestZeroAllocSleep: a proc sleeping in a loop; one iteration is one
// wake-up.
func TestZeroAllocSleep(t *testing.T) {
	k := NewKernel()
	k.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
		}
	})
	wake := func() {
		if !k.step() {
			t.Fatal("sleeper ran out of events")
		}
	}
	for i := 0; i < 8; i++ {
		wake()
	}
	if got := testing.AllocsPerRun(200, wake); got != 0 {
		t.Errorf("Sleep allocates %.1f allocs/op, want 0", got)
	}
	k.Close()
}

// TestZeroAllocBroadcast: Broadcast wakes every waiter and keeps the
// waiter queue's backing array for the next round.
func TestZeroAllocBroadcast(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal("all")
	for _, name := range []string{"a", "b", "c"} {
		k.Go(name, func(p *Proc) {
			for {
				p.Wait(s)
			}
		})
	}
	round := func() {
		if err := k.RunFor(0); err != nil {
			t.Fatal(err)
		}
		s.Broadcast()
	}
	for i := 0; i < 8; i++ {
		round()
	}
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("Broadcast round allocates %.1f allocs/op, want 0", got)
	}
	k.Close()
}

// TestDeadlockReportText pins the deadlock report: each blocked proc as
// name@reason, sorted, with the Signal's name after "waiting:".
func TestDeadlockReportText(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal("orphan")
	k.Go("b-stuck", func(p *Proc) { p.Wait(s) })
	k.Go("a-stuck", func(p *Proc) {
		p.Sleep(Microsecond)
		p.Wait(k.NewSignal("never"))
	})
	err := k.Run()
	const want = "sim: deadlock at 1.000us: blocked procs: a-stuck@waiting:never, b-stuck@waiting:orphan"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	k.Close()
}

// ownerName names a proc and a signal on demand (GoFor, NewSignalFor).
type ownerName struct{ calls int }

func (o *ownerName) String() string {
	o.calls++
	return "cab0/owned"
}

// TestOwnerNamesAreLazy: a proc and signal named by an owner never build
// the name while they run, and deadlock reports read as with plain names.
func TestOwnerNamesAreLazy(t *testing.T) {
	k := NewKernel()
	o := &ownerName{}
	s := k.NewSignalFor(o)
	k.GoFor(o, func(p *Proc) {
		p.Sleep(Microsecond)
		p.Wait(s)
	})
	if err := k.RunUntil(Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	if o.calls != 0 {
		t.Errorf("owner's String called %d times while running, want 0", o.calls)
	}
	err := k.Run()
	const want = "sim: deadlock at 1000.000us: blocked procs: cab0/owned@waiting:cab0/owned"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	k.Close()
}

// TestProcPanicNamesProc: a panic in a proc body fails the run through
// Fatalf with the proc's name and stack, and the kernel can reuse the
// proc's coroutine.
func TestProcPanicNamesProc(t *testing.T) {
	k := NewKernel()
	k.Go("bomb", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), `proc "bomb" panicked: boom`) ||
		!strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("err = %v, want the proc name, the panic value and a stack", err)
	}
}

// TestRunStopsIdleCoroutines: when a run returns, the kernel holds a
// goroutine only for each proc still parked; finished procs' coroutines
// are reused during the run and stopped at its end. Close releases the
// parked ones, whose bodies unwind through their deferred calls.
func TestRunStopsIdleCoroutines(t *testing.T) {
	g0 := runtime.NumGoroutine()
	k := NewKernel()
	s := k.NewSignal("forever")
	unwound := 0
	for _, name := range []string{"server1", "server2"} {
		k.Go(name, func(p *Proc) {
			defer func() { unwound++ }()
			p.Wait(s)
		})
	}
	k.Go("forker", func(p *Proc) {
		for i := 0; i < 50; i++ {
			k.Go("short", func(c *Proc) { c.Sleep(Microsecond) })
			p.Sleep(Microsecond)
		}
	})
	if err := k.RunUntil(Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(k.idle) != 0 {
		t.Errorf("%d idle coroutines after the run, want 0", len(k.idle))
	}
	if g := goroutinesAtMost(g0 + 2); g > g0+2 {
		t.Errorf("goroutines after the run = %d, want at most %d (one per parked proc)", g, g0+2)
	}
	k.Close()
	if g := goroutinesAtMost(g0); g > g0 {
		t.Errorf("goroutines after Close = %d, want at most %d", g, g0)
	}
	if unwound != 2 {
		t.Errorf("%d parked bodies ran their deferred calls, want 2", unwound)
	}
	if len(k.procs) != 0 {
		t.Errorf("%d procs still registered after Close", len(k.procs))
	}
}

// goroutinesAtMost polls the goroutine count for up to a second until it
// is at most n, and returns it: goroutines left by earlier tests (shard
// workers) may still be exiting.
func goroutinesAtMost(n int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > n && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// TestCloseDropsUnstartedProcs: a proc whose start event never ran has no
// coroutine; Close drops it, and the kernel refuses to run again.
func TestCloseDropsUnstartedProcs(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Go("late", func(*Proc) { ran = true })
	k.Close()
	if ran || len(k.procs) != 0 {
		t.Fatalf("ran=%v procs=%d after Close, want an unstarted proc dropped", ran, len(k.procs))
	}
	defer func() {
		if recover() == nil {
			t.Error("Run after Close did not panic")
		}
	}()
	_ = k.Run()
}
