package threads

import (
	"testing"

	"nectar/internal/sim"
)

// Zero-allocation guards for the scheduler's blocking path: slice and
// switch completions are callbacks bound once per Sched, and Cond.Wait
// reuses the thread's waiter entry and builds no blocking reason.

// TestZeroAllocComputeSlice: a thread computing in a loop; each RunFor
// covers exactly one compute slice and its wake-up.
func TestZeroAllocComputeSlice(t *testing.T) {
	k, s := testSched(t)
	const slice = 10 * sim.Microsecond
	s.Fork("worker", SystemPriority, func(th *Thread) {
		for {
			th.Compute(slice)
		}
	})
	step := func() {
		if err := k.RunFor(slice); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if got := testing.AllocsPerRun(200, step); got != 0 {
		t.Errorf("Compute slice allocates %.1f allocs/op, want 0", got)
	}
	k.Close()
}

// TestZeroAllocCondWaitSignal: a waiter and a signaler pass a flag under a
// Mutex with Cond.Wait and Cond.Signal; every 100 µs of virtual time
// covers at least one round (two context switches and 5 µs of compute).
func TestZeroAllocCondWaitSignal(t *testing.T) {
	k, s := testSched(t)
	m := NewMutex("m")
	c := NewCond(s, "c")
	ready := false
	rounds := 0
	s.Fork("waiter", SystemPriority, func(th *Thread) {
		for {
			m.Lock(th)
			for !ready {
				c.Wait(th, m)
			}
			ready = false
			rounds++
			m.Unlock(th)
		}
	})
	s.Fork("signaler", SystemPriority, func(th *Thread) {
		for {
			th.Compute(5 * sim.Microsecond)
			m.Lock(th)
			ready = true
			c.Signal()
			m.Unlock(th)
			th.Yield()
		}
	})
	round := func() {
		r := rounds
		if err := k.RunFor(100 * sim.Microsecond); err != nil {
			t.Fatal(err)
		}
		if rounds == r {
			t.Fatal("no Cond round completed")
		}
	}
	for i := 0; i < 8; i++ {
		round()
	}
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("Cond Wait/Signal round allocates %.1f allocs/op, want 0", got)
	}
	k.Close()
}
