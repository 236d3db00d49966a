package system

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"tetriswrite/internal/guard"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/workload"
)

// These tests pin the failure paths that across-run parallelism relies
// on: a -parallel sweep, the runner's retries and the fleet's shard
// reassignment all assume that a cell which aborts or violates does so
// the same way every time it runs. Each test runs one failing cell twice
// at once, on its own goroutine per run as a parallel sweep would, and
// requires the same typed error and a bit-identical partial Result from
// both; under the race detector it also checks that concurrent runs
// share no mutable state.

// runTwice runs the same cell concurrently twice. hook, when non-nil,
// adjusts each run's Config and may cancel that run's context.
func runTwice(prof workload.Profile, factory schemes.Factory, cfg Config, hook func(*Config, context.CancelFunc)) (res [2]Result, errs [2]error) {
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c := cfg
			if hook != nil {
				hook(&c, cancel)
			}
			res[i], errs[i] = RunCtx(ctx, prof, factory, c)
		}()
	}
	wg.Wait()
	return res, errs
}

// TestParallelMaxEventsTrip: the event-budget watchdog aborts both runs
// after the same number of executed events, with the same
// *sim.BudgetError and bit-identical partial statistics.
func TestParallelMaxEventsTrip(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	cfg := smallConfig()
	cfg.MaxEvents = 5_000
	res, errs := runTwice(prof, schemes.NewDCW, cfg, nil)
	var be [2]*sim.BudgetError
	if !errors.As(errs[0], &be[0]) || !errors.As(errs[1], &be[1]) {
		t.Fatalf("errors = %v / %v, want *sim.BudgetError from both runs", errs[0], errs[1])
	}
	if !reflect.DeepEqual(be[0], be[1]) {
		t.Errorf("budget errors diverged:\nfirst:  %+v\nsecond: %+v", be[0], be[1])
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Errorf("partial results diverged:\nfirst:  %+v\nsecond: %+v", res[0], res[1])
	}
	if res[0].Ctrl.Writes == 0 {
		t.Error("no writes before the trip; the test exercised nothing")
	}
}

// TestParallelContextCancel: a mid-run cancellation — triggered from a
// heartbeat so it lands at the same executed-event count in both runs —
// yields the same *RunError chain and bit-identical partial results.
func TestParallelContextCancel(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	res, errs := runTwice(prof, schemes.NewDCW, smallConfig(), func(cfg *Config, cancel context.CancelFunc) {
		cfg.Heartbeat = func(p sim.Progress) {
			if p.Events >= 4_000 {
				cancel()
			}
		}
	})
	var re [2]*RunError
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled in chain", err)
		}
		if !errors.As(err, &re[i]) || re[i].Fp.Workload != "vips" {
			t.Fatalf("fingerprint wrong: %v", err)
		}
	}
	if re[0].Fp != re[1].Fp {
		t.Errorf("abort fingerprints diverged: %+v vs %+v", re[0].Fp, re[1].Fp)
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Errorf("partial results diverged:\nfirst:  %+v\nsecond: %+v", res[0], res[1])
	}
}

// bankCorruptingScheme plans correctly until a write lands on a chosen
// bank, then collapses that plan's pulses to a single instant — an
// over-budget burst only the guard can catch, placed off bank zero so
// the violation is not simply the first write of the run.
type bankCorruptingScheme struct {
	schemes.Scheme
	banks int
	bank  int
}

func (s bankCorruptingScheme) PlanWrite(addr pcm.LineAddr, old, new []byte) schemes.Plan {
	p := s.Scheme.PlanWrite(addr, old, new)
	if int(addr)%s.banks != s.bank || len(p.Pulses) == 0 {
		return p
	}
	for i := range p.Pulses {
		p.Pulses[i].Start = 0
	}
	w := p.TSet
	if p.TReset > w {
		w = p.TReset
	}
	p.Write = w
	return p
}

// TestParallelGuardViolationNonZeroBank: a plan that violates the power
// budget on bank 3 stops both runs with the same *guard.ViolationError
// — same kind, detail, and fingerprint cycle — stamped at the plan's
// issue time.
func TestParallelGuardViolationNonZeroBank(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	cfg := smallConfig()
	cfg.InstrBudget = 50_000
	cfg.Guard = guard.Config{Enabled: true}
	banks := cfg.Params.NumBanks
	if banks < 4 {
		t.Fatalf("default params have %d banks, test wants >= 4", banks)
	}
	factory := func(par pcm.Params) schemes.Scheme {
		return bankCorruptingScheme{Scheme: schemes.NewDCW(par), banks: banks, bank: 3}
	}
	res, errs := runTwice(prof, factory, cfg, nil)
	var v [2]*guard.ViolationError
	if !errors.As(errs[0], &v[0]) || !errors.As(errs[1], &v[1]) {
		t.Fatalf("errors = %v / %v, want *guard.ViolationError from both runs", errs[0], errs[1])
	}
	if !reflect.DeepEqual(v[0], v[1]) {
		t.Errorf("violations diverged:\nfirst:  %+v\nsecond: %+v", v[0], v[1])
	}
	if v[0].Kind != guard.KindPower || v[0].Fp.Cycle <= 0 {
		t.Errorf("unexpected violation: %+v", v[0])
	}
	// Both partial results carry the guard counters up to the stop.
	if res[0].Guard == nil || res[1].Guard == nil {
		t.Fatalf("partial results missing guard stats: %+v / %+v", res[0].Guard, res[1].Guard)
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Errorf("partial results diverged:\nfirst:  %+v\nsecond: %+v", res[0], res[1])
	}
}

// TestParallelPanicBecomesError: a scheme panic surfaces from both runs
// as the same *PanicError (value and fingerprint) instead of crashing
// the process, so one corrupted cell of a sweep becomes an error row.
func TestParallelPanicBecomesError(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	cfg := smallConfig()
	cfg.InstrBudget = 50_000
	factory := func(par pcm.Params) schemes.Scheme {
		return &panicScheme{Scheme: schemes.NewDCW(par), n: 3}
	}
	res, errs := runTwice(prof, factory, cfg, nil)
	var pe [2]*PanicError
	for i, err := range errs {
		if !errors.As(err, &pe[i]) {
			t.Fatalf("err = %T %v, want *PanicError", err, err)
		}
		if pe[i].Value != "synthetic scheme bug" {
			t.Errorf("panic value = %v", pe[i].Value)
		}
	}
	if pe[0].Fp.Workload != "vips" || pe[0].Fp.Scheme != "dcw" {
		t.Errorf("fingerprint wrong: %+v", pe[0].Fp)
	}
	if pe[0].Fp != pe[1].Fp {
		t.Errorf("panic fingerprints diverged: %+v vs %+v", pe[0].Fp, pe[1].Fp)
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Errorf("partial results diverged:\nfirst:  %+v\nsecond: %+v", res[0], res[1])
	}
}
