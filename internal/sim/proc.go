package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"slices"
)

// Proc is a simulated sequential activity run as a coroutine (iter.Pull).
// The kernel runs at most one Proc at a time; a Proc runs until it blocks
// (Sleep, Wait, WaitTimeout) or returns, at which point control returns to
// the kernel loop.
//
// Proc methods that block must only be called from within that Proc's own
// body function.
type Proc struct {
	k     *Kernel
	name  string
	owner fmt.Stringer  // names the proc instead of name when set (GoFor)
	fn    func(p *Proc) // the body, until it starts running
	co    *carrier      // coroutine running the body: attached at the first dispatch, dropped at death
	// wake is p.dispatch, bound once so that Signal, Broadcast and Sleep
	// schedule it without allocating a closure per wake-up. Dropped at
	// death.
	wake func()

	// The blocking reason for deadlock reports: a fixed string and, for
	// "waiting:" and "waiting-timeout:", the Signal. procNames formats
	// them; the blocking path never builds a string.
	reason string
	on     *Signal
	dead   bool
}

// procStop is the panic value that unwinds a parked proc's body when
// Kernel.Close stops its coroutine. The body's recover recognizes it and
// reports no failure.
type procStop struct{}

// carrier is a coroutine that runs proc bodies. When a body returns, the
// carrier parks on its kernel's idle list and the next proc to start
// takes it from there, so forking a short-lived proc (one per interrupt)
// costs no goroutine start. Kernel.run and Coupling.run stop the idle
// carriers before they return.
type carrier struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // the proc whose body the carrier runs; nil while idle
}

// loop is the coroutine: run the attached proc's body, then park idle
// until the kernel attaches the next proc. A stopped carrier returns.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		k := c.p.k
		if c.p.body() {
			return
		}
		c.p = nil
		k.idle = append(k.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// Go starts a new Proc running fn. The Proc begins executing at the current
// virtual time, after already-scheduled events for this instant.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	return k.start(&Proc{k: k, name: name, fn: fn, reason: "starting"})
}

// GoFor is Go for a proc named by owner.String(). The name is built only
// when a report needs it, so a model that starts a proc per interrupt
// builds no string per start.
func (k *Kernel) GoFor(owner fmt.Stringer, fn func(p *Proc)) *Proc {
	return k.start(&Proc{k: k, owner: owner, fn: fn, reason: "starting"})
}

func (k *Kernel) start(p *Proc) *Proc {
	p.wake = p.dispatch
	k.procs[p] = struct{}{}
	k.schedule(k.now, p.wake)
	return p
}

// carrierFor attaches a coroutine to p: an idle one if the kernel has any,
// else a new one.
func (k *Kernel) carrierFor(p *Proc) *carrier {
	var c *carrier
	if n := len(k.idle); n > 0 {
		c = k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
	} else {
		c = &carrier{}
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.p = p
	return c
}

// stopIdle ends every idle carrier's coroutine, so that a kernel between
// runs holds a goroutine only for each proc still parked.
func (k *Kernel) stopIdle() {
	for i, c := range k.idle {
		c.stop()
		k.idle[i] = nil
	}
	k.idle = k.idle[:0]
}

// body runs the proc's function on its carrier and reports whether the
// proc was stopped (by Kernel.Close) rather than finished. A panic in the
// function fails the run through Fatalf, with the proc's name and stack.
// A dead proc drops its coroutine and wake func, so a stale dispatch can
// never resume another proc's body.
func (p *Proc) body() (stopped bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procStop); ok {
				stopped = true
			} else {
				p.k.Fatalf("sim: proc %q panicked: %v\n%s", p.Name(), r, debug.Stack())
			}
		}
		p.dead = true
		delete(p.k.procs, p)
		p.k.current = nil
		p.co, p.wake, p.on = nil, nil, nil
	}()
	fn := p.fn
	p.fn = nil
	p.reason = "running"
	fn(p)
	p.reason = "finished"
	return false
}

// dispatch transfers control from kernel context to the proc and returns
// when the proc blocks or finishes: it is the coroutine's next. Must be
// called from kernel context (inside an event). Dispatching a finished
// proc is a no-op.
func (p *Proc) dispatch() {
	if p.dead {
		return
	}
	if p.co == nil {
		p.co = p.k.carrierFor(p)
	}
	p.k.current = p
	p.co.next()
}

// checkContext panics unless the caller is p's own body, which is the
// only context from which blocking operations are legal.
func (p *Proc) checkContext(op string) {
	if p.k.current != p {
		Panicf("sim: %s on proc %q from outside its goroutine", op, p.Name())
	}
}

// yield transfers control from the proc back to the kernel loop and blocks
// until the proc is dispatched again: it is the coroutine's yield. reason
// and on record what the proc waits for. If the kernel is closed while the
// proc is parked, yield unwinds the body instead of returning.
func (p *Proc) yield(reason string, on *Signal) {
	if p.k.current != p {
		Panicf("sim: blocking call on proc %q from outside its goroutine", p.Name())
	}
	p.reason, p.on = reason, on
	p.k.current = nil
	if !p.co.yield(struct{}{}) {
		panic(procStop{})
	}
	p.k.current = p
	p.reason, p.on = "running", nil
}

// Name returns the proc's name.
//
//nectar:hotpath-exempt an owner-named proc builds its name here, for reports and panic messages only
func (p *Proc) Name() string {
	if p.owner != nil {
		return p.owner.String()
	}
	return p.name
}

// Kernel returns the kernel this proc runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep blocks the proc for d of virtual time.
//
//nectar:hotpath
func (p *Proc) Sleep(d Duration) {
	p.checkContext("Sleep")
	if d < 0 {
		d = 0
	}
	p.k.schedule(p.k.now+Time(d), p.wake)
	p.yield("sleeping", nil)
}

// Wait blocks until s is signaled. Multiple procs may wait on one Signal;
// Signal.Signal wakes exactly one (FIFO), Signal.Broadcast wakes all.
//
//nectar:hotpath
func (p *Proc) Wait(s *Signal) {
	p.checkContext("Wait")
	s.waiters = append(s.waiters, p)
	p.yield("waiting:", s)
}

// WaitTimeout blocks until s is signaled or d elapses. It reports true if
// the signal arrived, false on timeout.
func (p *Proc) WaitTimeout(s *Signal, d Duration) bool {
	p.checkContext("WaitTimeout")
	signaled := false
	fired := false
	// Waiter entry that the Signal will invoke.
	entry := &timedWaiter{p: p}
	s.timed = append(s.timed, entry)
	t := p.k.After(d, func() {
		if entry.done {
			return
		}
		entry.done = true
		fired = true
		p.dispatch()
	})
	entry.onSignal = func() {
		if entry.done {
			return
		}
		entry.done = true
		signaled = true
		t.Stop()
		p.dispatch()
	}
	p.yield("waiting-timeout:", s)
	_ = fired
	return signaled
}

type timedWaiter struct {
	p        *Proc
	onSignal func()
	done     bool
}

// Signal is a stateless wake-up point, akin to a condition variable: Wait
// always blocks; Signal/Broadcast wake current waiters only. Guard it with
// model-level state, exactly as with a condition variable.
type Signal struct {
	k       *Kernel
	name    string
	owner   fmt.Stringer // names the signal instead of name when set
	waiters []*Proc
	timed   []*timedWaiter
}

// NewSignal creates a named Signal for procs on k.
func (k *Kernel) NewSignal(name string) *Signal {
	return &Signal{k: k, name: name}
}

// NewSignalFor is NewSignal for a Signal named by owner.String(), built
// only when a deadlock report needs it.
func (k *Kernel) NewSignalFor(owner fmt.Stringer) *Signal {
	return &Signal{k: k, owner: owner}
}

// label returns the signal's name, for deadlock reports.
//
//nectar:hotpath-exempt an owner-named signal builds its name here, for deadlock reports only
func (s *Signal) label() string {
	if s.owner != nil {
		return s.owner.String()
	}
	return s.name
}

// Signal wakes one waiter (the longest-waiting first). Wake-ups are
// scheduled at the current instant, after the caller finishes its event.
//
//nectar:hotpath
func (s *Signal) Signal() {
	// Timed waiters are woken before plain waiters only if they registered
	// earlier; for determinism we simply prefer plain FIFO order: plain
	// waiters first, then timed. Models that mix both on one Signal and
	// care about order should use Broadcast.
	if len(s.waiters) > 0 {
		p := s.waiters[0]
		s.waiters = slices.Delete(s.waiters, 0, 1) // keeps the backing array
		s.k.schedule(s.k.now, p.wake)
		return
	}
	for len(s.timed) > 0 {
		w := s.timed[0]
		s.timed = slices.Delete(s.timed, 0, 1)
		if w.done {
			continue // already timed out; not a live waiter
		}
		s.k.schedule(s.k.now, w.onSignal)
		return
	}
}

// Broadcast wakes all current waiters in FIFO order.
//
//nectar:hotpath
func (s *Signal) Broadcast() {
	for i, p := range s.waiters {
		s.k.schedule(s.k.now, p.wake)
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
	timed := s.timed
	s.timed = nil
	for _, w := range timed {
		s.k.schedule(s.k.now, w.onSignal)
	}
}

// HasWaiters reports whether any proc is blocked on s.
func (s *Signal) HasWaiters() bool { return len(s.waiters) > 0 || len(s.timed) > 0 }
