package main

import (
	"fmt"
	"time"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
)

// The optional interfaces memctrl discovers on a scheme by type
// assertion. The timing wrapper must expose exactly the set its inner
// scheme has: a missing one silently changes what the controller does
// (no plan recycling, no PreSET, no scheme telemetry), an extra one
// claims behaviour the scheme lacks.
type (
	presetter interface {
		PlanPreset(addr pcm.LineAddr, old []byte) schemes.Plan
	}
	schedCacheStatser interface {
		SchedCacheStats() (hits, misses, entries int64)
	}
)

// writeStream is the (addr, old, new) sequence one simulation handed its
// schemes, in call order. Line images sit back to back in data: old then
// new for each write.
type writeStream struct {
	addrs []pcm.LineAddr
	data  []byte
}

func (w *writeStream) add(addr pcm.LineAddr, old, next []byte) {
	w.addrs = append(w.addrs, addr)
	w.data = append(append(w.data, old...), next...)
}

// tracer records what traced simulations do inside the layers the
// benchmark can see from outside: every PlanWrite call (timed, and
// captured when capture is set) through a wrapped scheme factory, and
// the engine's progress through the watchdog heartbeat.
type tracer struct {
	capture bool
	streams []writeStream // per job, when capture is set
	job     int           // job whose simulation is running

	planNs []int64 // duration of each PlanWrite call

	events      uint64 // events summed over finished simulations (heartbeat granularity)
	lastBeat    uint64 // events at the running simulation's last heartbeat
	peakPending int    // highest pending-event count seen at a heartbeat
}

func (t *tracer) heartbeat(p sim.Progress) {
	t.lastBeat = p.Events
	if p.Pending > t.peakPending {
		t.peakPending = p.Pending
	}
}

// simDone closes the books on the running simulation.
func (t *tracer) simDone() {
	t.events += t.lastBeat
	t.lastBeat = 0
}

// hooks returns the repetition hooks that trace every job.
func (t *tracer) hooks(njobs int) hooks {
	if t.capture && t.streams == nil {
		t.streams = make([]writeStream, njobs)
	}
	return hooks{
		factory: func(i int, f schemes.Factory) (schemes.Factory, error) {
			t.job = i
			return t.wrap(f)
		},
		heartbeat: t.heartbeat,
		afterRun:  t.simDone,
	}
}

// wrap returns a factory whose schemes time each PlanWrite into t. It
// fails when the inner scheme's set of optional interfaces is one the
// wrapper has no type for.
func (t *tracer) wrap(inner schemes.Factory) (schemes.Factory, error) {
	probe := inner(pcm.DefaultParams())
	if _, err := t.wrapScheme(probe); err != nil {
		return nil, err
	}
	return func(par pcm.Params) schemes.Scheme {
		s, err := t.wrapScheme(inner(par))
		if err != nil {
			panic(err) // the probe above accepted this factory
		}
		return s
	}, nil
}

// timedScheme is the Scheme part of every wrapped scheme.
type timedScheme struct {
	inner schemes.Scheme
	t     *tracer
}

func (s *timedScheme) Name() string               { return s.inner.Name() }
func (s *timedScheme) NeedsReadBeforeWrite() bool { return s.inner.NeedsReadBeforeWrite() }

func (s *timedScheme) PlanWrite(addr pcm.LineAddr, old, next []byte) schemes.Plan {
	t := s.t
	if t.capture {
		t.streams[t.job].add(addr, old, next)
	}
	start := time.Now()
	p := s.inner.PlanWrite(addr, old, next)
	t.planNs = append(t.planNs, int64(time.Since(start)))
	return p
}

// wrapScheme embeds the inner scheme's optional interfaces next to the
// timed Scheme methods. Go fixes a type's method set at compile time, so
// each supported combination of the five interfaces is its own type; the
// cases cover every scheme in the registry (see TestWrapForwardsInterfaces).
func (t *tracer) wrapScheme(inner schemes.Scheme) (schemes.Scheme, error) {
	base := &timedScheme{inner: inner, t: t}
	rec, isRec := inner.(schemes.PlanRecycler)
	obs, isObs := inner.(schemes.QueueObserver)
	sp, isSP := inner.(schemes.StatProvider)
	pre, isPre := inner.(presetter)
	sc, isSC := inner.(schedCacheStatser)
	switch [5]bool{isRec, isObs, isSP, isPre, isSC} {
	case [5]bool{true, false, false, false, false}: // the conventional family
		return struct {
			*timedScheme
			schemes.PlanRecycler
		}{base, rec}, nil
	case [5]bool{true, true, true, false, false}: // decorators, adaptive
		return struct {
			*timedScheme
			schemes.PlanRecycler
			schemes.QueueObserver
			schemes.StatProvider
		}{base, rec, obs, sp}, nil
	case [5]bool{true, false, false, true, true}: // tetris
		return struct {
			*timedScheme
			schemes.PlanRecycler
			presetter
			schedCacheStatser
		}{base, rec, pre, sc}, nil
	}
	return nil, fmt.Errorf("timing wrapper: scheme %q has an unsupported set of optional interfaces "+
		"(recycler=%v observer=%v stats=%v preset=%v schedcache=%v)", inner.Name(), isRec, isObs, isSP, isPre, isSC)
}
