package main

import (
	"testing"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/registry"
	"tetriswrite/internal/schemes"
)

// interfaceSet reports which of the optional interfaces memctrl asserts
// a scheme implements.
func interfaceSet(s schemes.Scheme) [5]bool {
	_, rec := s.(schemes.PlanRecycler)
	_, obs := s.(schemes.QueueObserver)
	_, sp := s.(schemes.StatProvider)
	_, pre := s.(schemes.Presetter)
	_, sc := s.(schedCacheStatser)
	return [5]bool{rec, obs, sp, pre, sc}
}

// TestWrapForwardsInterfaces wraps every registry scheme, bare and under
// each decorator, and checks the wrapper exposes exactly the inner
// scheme's optional interfaces.
func TestWrapForwardsInterfaces(t *testing.T) {
	reg := registry.Default()
	names := reg.Names()
	for _, base := range reg.Bases() {
		for _, d := range reg.Decorators() {
			names = append(names, base+"+"+d)
		}
	}
	par := pcm.DefaultParams()
	tr := &tracer{}
	for _, name := range names {
		e, err := reg.Resolve(name)
		if err != nil {
			continue // a composition the registry rejects
		}
		f, err := tr.wrap(e.Factory)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		inner, wrapped := e.Factory(par), f(par)
		if got, want := interfaceSet(wrapped), interfaceSet(inner); got != want {
			t.Errorf("%s: wrapped interfaces %v, inner %v", name, got, want)
		}
		if wrapped.Name() != inner.Name() {
			t.Errorf("%s: wrapped name %q, inner %q", name, wrapped.Name(), inner.Name())
		}
	}
}

// TestTracedDigestsMatchUntraced runs every workload at a reduced budget
// untraced, traced (timing wrapper, write capture, heartbeat) and
// guarded (invariant checks, epoch telemetry), and checks all three give
// the same digests, and that the traced run planned every write the
// controller did not coalesce.
func TestTracedDigestsMatchUntraced(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			jobs, err := s.jobs(7, s.budget/20)
			if err != nil {
				t.Fatal(err)
			}
			plain := runJobs(jobs, hooks{})
			tr := &tracer{capture: true}
			traced := runJobs(jobs, tr.hooks(len(jobs)))
			guarded := runJobs(jobs, hooks{guard: true})
			b := &bench{spec: s}
			b.account("traced", traced, plain)
			b.account("guarded", guarded, plain)
			for _, p := range b.problems {
				t.Error(p)
			}
			var writes int64
			for _, o := range plain {
				writes += o.res.Ctrl.Writes - o.res.Ctrl.Coalesced
			}
			captured := 0
			for _, st := range tr.streams {
				captured += len(st.addrs)
			}
			if len(tr.planNs) != captured || int64(captured) != writes || tr.events == 0 {
				t.Errorf("traced run recorded %d plan timings, %d captured writes (want %d), %d events",
					len(tr.planNs), captured, writes, tr.events)
			}
			if s.caches && captured != 0 {
				t.Errorf("%d writes reached PCM; the workload is meant to leave the planner idle", captured)
			}
			t.Logf("%d simulations, digest %s, %d planned writes", len(plain), repDigest(plain), captured)
		})
	}
}
