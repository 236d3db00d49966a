package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"tetriswrite/internal/units"
)

// onHeap runs f on a fresh engine as the "heap" subtest, named after
// the binary heap the engine queues its events in.
func onHeap(t *testing.T, f func(t *testing.T, e *Engine)) {
	t.Run("heap", func(t *testing.T) { f(t, &Engine{}) })
}

// TestAtLazyResolvesLater: a lazy event whose resolver reports a later
// time is transparently re-queued there — events scheduled between the
// bound and the final time run first, the clock never shows the bound,
// and Processed counts the lazy event exactly once.
func TestAtLazyResolvesLater(t *testing.T) {
	onHeap(t, func(t *testing.T, e *Engine) {
		var got []string
		resolves := 0
		e.AtLazy(10, func() (units.Time, func()) {
			resolves++
			return 25, func() {
				if e.Now() != 25 {
					t.Errorf("lazy body at %v, want 25", e.Now())
				}
				got = append(got, "lazy")
			}
		})
		e.At(15, func() { got = append(got, "mid") })
		e.At(30, func() { got = append(got, "end") })
		e.Run()
		if resolves != 1 {
			t.Errorf("resolver ran %d times, want 1", resolves)
		}
		want := []string{"mid", "lazy", "end"}
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("order %v, want %v", got, want)
			}
		}
		if e.Processed() != 3 {
			t.Errorf("Processed = %d, want 3 (re-queue is transparent)", e.Processed())
		}
	})
}

// TestAtLazyResolvesEqual: a resolver confirming the bound runs the body
// in the same Step, preserving the event's sequence position among
// same-time events.
func TestAtLazyResolvesEqual(t *testing.T) {
	onHeap(t, func(t *testing.T, e *Engine) {
		var got []string
		e.At(10, func() { got = append(got, "before") })
		e.AtLazy(10, func() (units.Time, func()) {
			return 10, func() { got = append(got, "lazy") }
		})
		e.At(10, func() { got = append(got, "after") })
		e.Run()
		want := []string{"before", "lazy", "after"}
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("order %v, want %v", got, want)
			}
		}
	})
}

// TestAtLazySeqInterleavesWithAt: lazy and plain events share one
// sequence counter, so a lazy placeholder keeps exactly the tiebreak
// rank its issue order implies.
func TestAtLazySeqInterleavesWithAt(t *testing.T) {
	onHeap(t, func(t *testing.T, e *Engine) {
		var got []int
		e.At(5, func() { got = append(got, 0) })
		e.AtLazy(5, func() (units.Time, func()) {
			return 5, func() { got = append(got, 1) }
		})
		e.At(5, func() { got = append(got, 2) })
		e.AtLazy(5, func() (units.Time, func()) {
			return 5, func() { got = append(got, 3) }
		})
		e.Run()
		for i, v := range got {
			if v != i {
				t.Fatalf("tiebreak order %v, want [0 1 2 3]", got)
			}
		}
	})
}

// TestAtLazyEarlierPanics: resolving below the bound means the bound was
// not conservative — the kernel must refuse rather than time-travel.
func TestAtLazyEarlierPanics(t *testing.T) {
	onHeap(t, func(t *testing.T, e *Engine) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("no panic for a resolution before the bound")
			}
			if !strings.Contains(r.(string), "before its bound") {
				t.Fatalf("panic = %v", r)
			}
		}()
		e.AtLazy(10, func() (units.Time, func()) {
			return 5, func() {}
		})
		e.Run()
	})
}

// TestAtLazyPastBoundPanics: like At, the bound itself must not be in
// the past.
func TestAtLazyPastBoundPanics(t *testing.T) {
	e := &Engine{}
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling a lazy event in the past")
		}
	}()
	e.AtLazy(5, func() (units.Time, func()) { return 5, func() {} })
}

// TestAtLazyChained: a lazy body scheduling further (lazy) events — the
// controller's actual usage, every write completion scheduling the next
// — drains correctly.
func TestAtLazyChained(t *testing.T) {
	onHeap(t, func(t *testing.T, e *Engine) {
		var times []units.Time
		n := 0
		var arm func()
		arm = func() {
			e.AtLazy(e.Now().Add(3), func() (units.Time, func()) {
				return e.Now().Add(7), func() {
					times = append(times, e.Now())
					if n++; n < 4 {
						arm()
					}
				}
			})
		}
		e.At(0, arm)
		e.Run()
		for i, at := range times {
			if at != units.Time((i+1)*7) {
				t.Fatalf("chain times %v", times)
			}
		}
	})
}

// TestRunContextBudgetIgnoresResolutions: watchdog budgets, heartbeats
// and cancellation polls count executed events only — a Step that merely
// re-queues a lazy event is invisible, so serial and parallel engine
// modes trip at identical points.
func TestRunContextBudgetIgnoresResolutions(t *testing.T) {
	onHeap(t, func(t *testing.T, e *Engine) {
		for i := 0; i < 10; i++ {
			at := units.Time(i*10 + 1)
			e.AtLazy(at, func() (units.Time, func()) {
				return at.Add(5), func() {}
			})
		}
		err := e.RunContext(context.Background(), Watchdog{MaxEvents: 5})
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("err = %v, want *BudgetError", err)
		}
		if be.Events != 5 {
			t.Errorf("budget tripped at %d events, want 5 (resolutions must not count)", be.Events)
		}
	})
}

// TestRunContextSimTimeWithLazyBound: the sim-time budget peeks at the
// placeholder's conservative bound; a bound within the deadline whose
// resolution lands beyond it still executes the resolution step and then
// trips on the re-queued event, identically in both queue kinds.
func TestRunContextSimTimeWithLazyBound(t *testing.T) {
	onHeap(t, func(t *testing.T, e *Engine) {
		ran := false
		e.AtLazy(10, func() (units.Time, func()) {
			return 100, func() { ran = true }
		})
		err := e.RunContext(context.Background(), Watchdog{MaxSimTime: 50})
		var be *BudgetError
		if !errors.As(err, &be) || !be.SimTime {
			t.Fatalf("err = %v, want sim-time *BudgetError", err)
		}
		if ran {
			t.Error("body ran past the deadline")
		}
		// The re-queued event is intact: lifting the deadline runs it.
		if err := e.RunContext(context.Background(), Watchdog{}); err != nil {
			t.Fatal(err)
		}
		if !ran || e.Now() != 100 {
			t.Errorf("after drain: ran=%v now=%v, want true/100", ran, e.Now())
		}
	})
}

// TestAtLazyNilResolverPanics: the resolver is not optional.
func TestAtLazyNilResolverPanics(t *testing.T) {
	e := &Engine{}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil resolver")
		}
	}()
	e.AtLazy(1, nil)
}
