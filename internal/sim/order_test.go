package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"tetriswrite/internal/units"
)

// oracleEvent is the order oracle's record of one scheduled event.
type oracleEvent struct {
	at  units.Time
	seq uint64
	id  int
}

// orderRun drives an engine through a seeded random schedule while an
// oracle — a plain slice sorted by (at, seq) before every pop — predicts
// which event each callback must belong to. The checks
// live inside the callbacks, so Step, Run and RunUntil are all held to
// the oracle.
type orderRun struct {
	t       *testing.T
	rng     *rand.Rand
	e       *Engine
	pending []oracleEvent
	seq     uint64
	nextID  int
	limit   int // total events to schedule
	ran     int // callbacks executed
}

// head returns the oracle's next event, checking it is id.
func (r *orderRun) head(id int, what string) *oracleEvent {
	r.t.Helper()
	slices.SortFunc(r.pending, func(a, b oracleEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	if len(r.pending) == 0 || r.pending[0].id != id {
		r.t.Fatalf("engine %s event %d, oracle head is %+v", what, id, r.pending[:min(1, len(r.pending))])
	}
	return &r.pending[0]
}

// schedule queues one event d after now.
func (r *orderRun) schedule(d units.Duration) {
	if r.nextID >= r.limit {
		return
	}
	id := r.nextID
	r.nextID++
	r.seq++
	at := r.e.Now().Add(d)
	ev := oracleEvent{at: at, seq: r.seq, id: id}
	body := func() {
		h := r.head(id, "ran")
		if r.e.Now() != h.at {
			r.t.Fatalf("event %d ran at %v, oracle time %v", id, r.e.Now(), h.at)
		}
		r.pending = r.pending[1:]
		r.ran++
		r.followUps()
	}
	r.e.At(at, body)
	r.pending = append(r.pending, ev)
}

// delay draws a follow-up delay: zero, a tie-prone handful of ticks, a
// short hop, or a far-future outlier.
func (r *orderRun) delay() units.Duration {
	switch r.rng.Intn(8) {
	case 0, 1:
		return 0
	case 2, 3:
		return units.Duration(r.rng.Intn(3))
	case 4, 5, 6:
		return units.Duration(r.rng.Int63n(10_000))
	default:
		return units.Duration(1<<41 + r.rng.Int63n(1<<41))
	}
}

// followUps schedules from inside a callback, as components do:
// zero-delay self-rescheduling, bursts at one shared future time, or a
// single event.
func (r *orderRun) followUps() {
	switch r.rng.Intn(4) {
	case 0:
		r.schedule(0)
	case 1:
		d := r.delay()
		for n := 1 + r.rng.Intn(3); n > 0; n-- {
			r.schedule(d)
		}
	case 2:
		r.schedule(r.delay())
	}
}

func (r *orderRun) checkPending() {
	r.t.Helper()
	if got := r.e.Pending(); got != len(r.pending) {
		r.t.Fatalf("Pending() = %d, oracle holds %d", got, len(r.pending))
	}
}

// TestEngineMatchesOrderOracle checks the engine's pop order against a
// sort-by-(at, seq) oracle over random interleavings of pushes from
// outside, single Steps and RunUntil windows, with same-time ties and
// zero-delay self-rescheduling.
func TestEngineMatchesOrderOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := &orderRun{t: t, rng: rand.New(rand.NewSource(seed)), e: &Engine{}, limit: 5000}
		for r.nextID < r.limit {
			switch r.rng.Intn(4) {
			case 0:
				for n := 1 + r.rng.Intn(4); n > 0; n-- {
					r.schedule(r.delay())
				}
			case 1:
				r.e.Step()
			case 2:
				until := r.e.Now().Add(units.Duration(r.rng.Int63n(20_000)))
				r.e.RunUntil(until)
				if r.e.Now() != until {
					t.Fatalf("seed %d: RunUntil(%v) left the clock at %v", seed, until, r.e.Now())
				}
				for _, ev := range r.pending {
					if ev.at <= until {
						t.Fatalf("seed %d: RunUntil(%v) left event %d due at %v", seed, until, ev.id, ev.at)
					}
				}
			default:
				r.schedule(0)
			}
			r.checkPending()
		}
		r.e.Run()
		r.checkPending()
		if r.ran != r.nextID || r.e.Processed() != uint64(r.ran) {
			t.Fatalf("seed %d: %d events scheduled, %d ran, Processed %d", seed, r.nextID, r.ran, r.e.Processed())
		}
	}
}
