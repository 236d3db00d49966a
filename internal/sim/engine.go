// Package sim provides the deterministic event-driven simulation kernel
// shared by the full-system experiments: a time-ordered event queue with
// stable tie-breaking, so identical inputs always replay identically.
//
// The queue is one binary min-heap ordered by (time, sequence). Real runs
// keep about a dozen events pending, where a heap of that depth costs a
// few comparisons per event.
package sim

import (
	"fmt"

	"tetriswrite/internal/units"
)

// Event is a callback scheduled at a point in simulated time.
type event struct {
	at  units.Time
	seq uint64 // insertion order, breaks ties deterministically
	fn  func()
}

// eventHeap is a binary min-heap ordered by (at, seq).
type eventHeap []*event

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush and heapPop are container/heap without the interface boxing:
// the queue is the engine's innermost loop, so the any round-trips and
// Less/Swap indirection are worth avoiding. Both sift a hole instead of
// swapping, writing each moved slot once and the placed event last.
func heapPush(h *eventHeap, ev *event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(ev, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

// heapPop removes and returns the earliest event; the heap must not be
// empty.
func heapPop(h *eventHeap) *event {
	s := *h
	n := len(s) - 1
	top := s[0]
	last := s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventLess(s[r], s[c]) {
			c = r
		}
		if !eventLess(s[c], last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = last
	}
	return top
}

// Engine runs events in time order. The zero value is ready to use.
// Engines are single-threaded: all scheduling must happen from event
// callbacks or before Run.
type Engine struct {
	q       eventHeap
	now     units.Time
	seq     uint64
	events  uint64
	stopErr error // set by Stop; halts Run/RunContext at the next boundary

	// free recycles event structs between Step and At: a long simulation
	// turns over millions of events whose live population is tiny (the
	// pending queue), so reuse keeps the kernel off the allocator. Only
	// grows to the high-water mark of the pending queue.
	free []*event
}

// NewEngine returns a ready engine, the same as &Engine{}.
//
// Deprecated: the argument is ignored. It once selected the event-queue
// implementation; there is now one queue, and the parameter remains
// only so callers that passed the empty default still compile.
func NewEngine(_ ...string) *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.events }

// Pending returns the number of events waiting to run.
func (e *Engine) Pending() int { return len(e.q) }

// At schedules fn at absolute time t, which must not precede the current
// time (the simulator has no time machine; scheduling in the past is
// always a component bug, so it panics loudly).
func (e *Engine) At(t units.Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, e.now))
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	heapPush(&e.q, ev)
}

// After schedules fn d after the current time.
func (e *Engine) After(d units.Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now.Add(d), fn)
}

// Step runs the single earliest event. It reports false when the queue
// is empty.
func (e *Engine) Step() bool {
	if len(e.q) == 0 {
		return false
	}
	ev := heapPop(&e.q)
	e.now = ev.at
	e.events++
	fn := ev.fn
	// Recycle before running: the struct is fully extracted, so fn's own
	// At calls may reuse it immediately. Clearing fn releases the
	// closure's captures as soon as the event is done.
	ev.fn = nil
	e.free = append(e.free, ev)
	fn()
	return true
}

// Run executes events until the queue drains, or until Stop is called
// (RunContext additionally supports cancellation and budgets).
func (e *Engine) Run() {
	for e.stopErr == nil && e.Step() {
	}
}

// RunUntil executes events up to and including time t, then stops. Later
// events stay queued; the current time advances to t even if no event
// lands exactly there.
func (e *Engine) RunUntil(t units.Time) {
	for len(e.q) > 0 && e.q[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor executes events for d of simulated time from now.
func (e *Engine) RunFor(d units.Duration) { e.RunUntil(e.now.Add(d)) }
