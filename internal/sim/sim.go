// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives everything dynamic in this repository: request arrivals,
// per-instance queueing, instance startup delays, autoscaler control loops,
// and metric sampling. Time is a float64 number of seconds since simulation
// start. Events scheduled at the same instant are executed in FIFO order of
// scheduling, which keeps runs fully deterministic under a fixed seed.
package sim

import (
	"fmt"
	"math/rand"
)

// Clock exposes the current simulated time in seconds.
type Clock interface {
	// Now returns the current simulated time in seconds since start.
	Now() float64
}

// Handler is an event target scheduled without a closure: the engine calls
// Fire when the event comes due. A long-lived state machine that implements
// Handler on a pointer receiver schedules its events without allocating.
type Handler interface {
	Fire()
}

// event is one scheduled callback: fn, or h when fn is nil. Events are
// recycled through the engine's free list once they fire or are drained.
type event struct {
	at   float64
	seq  uint64
	fn   func()
	h    Handler
	dead bool
}

// EventID identifies a scheduled event so it can be cancelled. It carries
// the event's sequence number as a generation: events are recycled, and a
// stale EventID whose event has since been reused no longer matches.
type EventID struct {
	e   *event
	seq uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (id EventID) Cancel() {
	if id.e != nil && id.e.seq == id.seq {
		id.e.dead = true
	}
}

// before orders events by time, then by scheduling order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulator.
//
// The zero value is not usable; construct with NewEngine. Engines are not
// safe for concurrent use: all callbacks run on the goroutine that calls Run
// or Step.
type Engine struct {
	now    float64
	seq    uint64
	queue  []*event // binary min-heap on (at, seq)
	free   []*event // recycled events
	rng    *rand.Rand
	halted bool
}

// NewEngine returns an engine whose random source is seeded with seed.
// The same seed always yields the same execution.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Rand returns the engine's deterministic random source. All stochastic
// components of a simulation must draw from this source (or a source derived
// from it) to keep runs reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past panics: it indicates a logic error in the caller, and silently
// clamping would corrupt causality.
func (e *Engine) At(t float64, fn func()) EventID {
	return e.schedule(t, fn, nil)
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (e *Engine) After(d float64, fn func()) EventID {
	return e.schedule(e.now+d, fn, nil)
}

// AfterHandler schedules h.Fire d seconds from now. It shares At's
// sequence numbers, so handler and callback events due at the same instant
// fire in scheduling order.
func (e *Engine) AfterHandler(d float64, h Handler) EventID {
	return e.schedule(e.now+d, nil, h)
}

func (e *Engine) schedule(t float64, fn func(), h Handler) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %.6f before now %.6f", t, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	*ev = event{at: t, seq: e.seq, fn: fn, h: h}
	e.seq++
	e.push(ev)
	return EventID{e: ev, seq: ev.seq}
}

// push adds ev to the heap (container/heap's Push, without the interface
// calls).
func (e *Engine) push(ev *event) {
	q := append(e.queue, ev)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !ev.before(q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = ev
	e.queue = q
}

// pop removes and returns the earliest event (container/heap's Pop).
func (e *Engine) pop() *event {
	q := e.queue
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			j := 2*i + 1
			if j >= n {
				break
			}
			if r := j + 1; r < n && q[r].before(q[j]) {
				j = r
			}
			if !q[j].before(last) {
				break
			}
			q[i] = q[j]
			i = j
		}
		q[i] = last
	}
	e.queue = q
	return top
}

// fire advances the clock to ev, recycles it and runs its callback. The
// event is recycled first, so the callback may schedule into it.
func (e *Engine) fire(ev *event) {
	e.now = ev.at
	fn, h := ev.fn, ev.h
	e.recycle(ev)
	if fn != nil {
		fn()
	} else {
		h.Fire()
	}
}

func (e *Engine) recycle(ev *event) {
	ev.fn, ev.h = nil, nil
	e.free = append(e.free, ev)
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.pop()
		if ev.dead {
			e.recycle(ev)
			continue
		}
		e.fire(ev)
		return true
	}
	return false
}

// RunUntil executes events in order until the queue is empty or the next
// event is after t. The clock is left at min(t, time of last event executed),
// then advanced to t so subsequent scheduling is relative to t.
func (e *Engine) RunUntil(t float64) {
	for len(e.queue) > 0 && !e.halted {
		next := e.queue[0]
		if next.dead {
			e.recycle(e.pop())
			continue
		}
		if next.at > t {
			break
		}
		e.fire(e.pop())
	}
	if t > e.now {
		e.now = t
	}
	e.halted = false
}

// Run executes events until the queue drains or Halt is called.
func (e *Engine) Run() {
	for !e.halted && e.Step() {
	}
	e.halted = false
}

// Halt stops Run/RunUntil after the current event completes.
func (e *Engine) Halt() { e.halted = true }

// Pending returns the number of events currently scheduled (including
// cancelled events not yet drained).
func (e *Engine) Pending() int { return len(e.queue) }

// Ticker invokes fn every interval seconds, starting at start, until the
// returned stop function is called. It is the simulated analogue of
// time.Ticker and is used for control loops (autoscalers, metric scrapers).
func (e *Engine) Ticker(start, interval float64, fn func()) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			e.After(interval, tick)
		}
	}
	e.At(start, tick)
	return func() { stopped = true }
}
