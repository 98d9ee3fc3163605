package threads

import (
	"slices"

	"nectar/internal/sim"
)

// Mutex is a mutual exclusion lock with FIFO handoff, as provided by the
// CAB threads package (paper §3.1). Because the simulation kernel is
// single-threaded, the lock exists to model *logical* mutual exclusion
// across blocking points, exactly as on the real CAB: a critical section
// containing a Compute or a blocking call can be interleaved with other
// threads, and the Mutex keeps them out.
type Mutex struct {
	name    string
	owner   *Thread
	waiters []*Thread
}

// NewMutex creates an unlocked mutex.
func NewMutex(name string) *Mutex {
	return &Mutex{name: name}
}

// Lock acquires the mutex, blocking the calling thread while another
// thread holds it. Handoff is FIFO.
func (m *Mutex) Lock(t *Thread) {
	if m.owner == nil {
		m.owner = t
		return
	}
	if m.owner == t {
		sim.Panicf("threads: recursive Lock of %q by %q", m.name, t.name)
	}
	m.waiters = append(m.waiters, t)
	t.block("mutex:", m.name)
	// Ownership was handed to us by Unlock before we were woken.
	if m.owner != t {
		sim.Panicf("threads: woke from Lock of %q without ownership", m.name)
	}
}

// TryLock acquires the mutex if it is free, without blocking. It reports
// whether the lock was acquired. Safe from interrupt handlers.
func (m *Mutex) TryLock(t *Thread) bool {
	if m.owner != nil {
		return false
	}
	m.owner = t
	return true
}

// Unlock releases the mutex, handing it to the longest-waiting thread.
func (m *Mutex) Unlock(t *Thread) {
	if m.owner != t {
		sim.Panicf("threads: Unlock of %q by non-owner %q", m.name, t.name)
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := m.waiters[0]
	m.waiters = slices.Delete(m.waiters, 0, 1) // keeps the backing array
	m.owner = next
	next.Unblock()
}

// Held reports whether the mutex is currently held (by anyone).
func (m *Mutex) Held() bool { return m.owner != nil }

// HeldBy reports whether t holds the mutex.
func (m *Mutex) HeldBy(t *Thread) bool { return m.owner == t }

// Cond is a condition variable with Mesa semantics, matching the CAB
// threads package: Wait releases the associated mutex and re-acquires it
// before returning; waiters must re-check their predicate in a loop.
// Signal and Broadcast may be called from any context, including interrupt
// handlers (a common pattern in the paper's protocol code).
type Cond struct {
	sched   *Sched
	name    string
	waiters []*condWaiter
}

type condWaiter struct {
	t        *Thread
	timedOut bool
	removed  bool
}

// NewCond creates a condition variable for threads on s.
func NewCond(s *Sched, name string) *Cond {
	return &Cond{sched: s, name: name}
}

// Wait atomically releases m and blocks until signaled, then re-acquires m.
// The thread's own waiter entry is reused: a Wait is only ever ended by
// Signal or Broadcast, which take the entry off the queue.
//
//nectar:hotpath
func (c *Cond) Wait(t *Thread, m *Mutex) {
	w := &t.cw
	*w = condWaiter{t: t}
	c.waiters = append(c.waiters, w)
	m.Unlock(t)
	t.block("cond:", c.name)
	m.Lock(t)
}

// WaitTimeout is Wait with a timeout; it reports true if signaled, false if
// the timeout elapsed first. In either case m is re-acquired.
func (c *Cond) WaitTimeout(t *Thread, m *Mutex, d sim.Duration) bool {
	w := &condWaiter{t: t}
	c.waiters = append(c.waiters, w)
	epoch := t.epoch + 1
	c.sched.k.After(d, func() {
		if w.removed {
			return // already signaled
		}
		w.removed = true
		w.timedOut = true
		c.remove(w)
		if t.epoch == epoch && t.state == stateBlocked {
			t.Unblock()
		}
	})
	m.Unlock(t)
	t.block("cond:", c.name)
	m.Lock(t)
	return !w.timedOut
}

// Signal wakes one waiter (FIFO).
func (c *Cond) Signal() {
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = slices.Delete(c.waiters, 0, 1)
		if w.removed {
			continue
		}
		w.removed = true
		w.t.Unblock()
		return
	}
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	for i, w := range c.waiters {
		c.waiters[i] = nil
		if w.removed {
			continue
		}
		w.removed = true
		w.t.Unblock()
	}
	c.waiters = c.waiters[:0]
}

// HasWaiters reports whether any thread is waiting on c.
func (c *Cond) HasWaiters() bool {
	for _, w := range c.waiters {
		if !w.removed {
			return true
		}
	}
	return false
}

func (c *Cond) remove(w *condWaiter) {
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}
