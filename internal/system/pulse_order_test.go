package system

import (
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"testing"

	"tetriswrite/internal/cache"
	"tetriswrite/internal/crash"
	"tetriswrite/internal/guard"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

// flipScheme is the surface the controller, the guard and crash recovery
// reach through on tetris and the flip-coding static schemes. The
// reversing wrapper forwards all of it, so the only thing it changes is
// pulse order.
type flipScheme interface {
	schemes.Scheme
	schemes.FlipTagReader
	schemes.TagRestorer
	schemes.TornStateClassifier
	schemes.PlanRecycler
}

// reversedScheme hands the controller every plan with its pulses in
// reverse emission order. Plan.Pulses order is unspecified, so a run
// through it must match the unwrapped run exactly.
type reversedScheme struct{ flipScheme }

func (s reversedScheme) PlanWrite(addr pcm.LineAddr, old, new []byte) schemes.Plan {
	p := s.flipScheme.PlanWrite(addr, old, new)
	slices.Reverse(p.Pulses)
	return p
}

// reversedPresetter adds PreSET plans, reversed the same way, for
// schemes that support them.
type reversedPresetter struct {
	reversedScheme
	pre schemes.Presetter
}

func (s reversedPresetter) PlanPreset(addr pcm.LineAddr, old []byte) schemes.Plan {
	p := s.pre.PlanPreset(addr, old)
	slices.Reverse(p.Pulses)
	return p
}

func reversed(t *testing.T, f schemes.Factory) schemes.Factory {
	return func(par pcm.Params) schemes.Scheme {
		inner, ok := f(par).(flipScheme)
		if !ok {
			t.Fatalf("%T does not expose the flip-coding scheme surface", f(par))
		}
		r := reversedScheme{inner}
		if pre, ok := inner.(schemes.Presetter); ok {
			return reversedPresetter{r, pre}
		}
		return r
	}
}

func summaryJSON(t *testing.T, r Result, seed int64) string {
	t.Helper()
	b, err := json.Marshal(Summarize(r, seed))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sameRun fails the test unless the reversed-pulse run matches the plain
// one: Summarize JSON and every controller counter.
func sameRun(t *testing.T, plain, rev Result, seed int64) {
	t.Helper()
	if a, b := summaryJSON(t, plain, seed), summaryJSON(t, rev, seed); a != b {
		t.Errorf("reversed pulses changed the summary:\nplain:    %s\nreversed: %s", a, b)
	}
	if !reflect.DeepEqual(plain.Ctrl, rev.Ctrl) {
		t.Errorf("reversed pulses changed controller stats:\nplain:    %+v\nreversed: %+v", plain.Ctrl, rev.Ctrl)
	}
}

var orderFactories = []struct {
	name    string
	factory schemes.Factory
}{
	{"tetris", tetris.New},
	{"3stage", schemes.NewThreeStage},
}

// TestPulseOrderIsUnobservable pins the Plan.Pulses contract: no
// consumer — controller, device, energy accounting, the guard's deep
// shadow replay — may depend on the order a scheme emits pulses in.
// Reversing every plan must leave the run bit-identical.
func TestPulseOrderIsUnobservable(t *testing.T) {
	for _, prof := range []string{"vips", "canneal"} {
		prof, _ := workload.ProfileByName(prof)
		for _, mk := range orderFactories {
			t.Run(prof.Name+"/"+mk.name, func(t *testing.T) {
				cfg := smallConfig()
				cfg.InstrBudget = 50_000
				cfg.Guard = guard.Config{Enabled: true, DeepChecks: true}
				plain, err := Run(prof, mk.factory, cfg)
				if err != nil {
					t.Fatal(err)
				}
				rev, err := Run(prof, reversed(t, mk.factory), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if plain.Ctrl.Writes == 0 || rev.Guard.DeepReplays == 0 {
					t.Fatalf("no writes deep-checked: %+v", rev.Guard)
				}
				sameRun(t, plain, rev, cfg.Seed)
			})
		}
	}
}

// TestPresetPulseOrderIsUnobservable extends the contract to PreSET
// plans, which Tetris emits through its own path.
func TestPresetPulseOrderIsUnobservable(t *testing.T) {
	prof, _ := workload.ProfileByName("ferret")
	prof.RPKI *= 20
	prof.WPKI *= 20
	cfg := smallConfig()
	cfg.InstrBudget = 50_000
	cfg.UseCaches = true
	cfg.CacheLevels = []cache.LevelConfig{
		{Name: "L1", SizeBytes: 16 << 10, LineBytes: 64, Ways: 4, Latency: units.NewClock(2e9).Cycles(2)},
	}
	cfg.Ctrl.IdlePreset = true
	cfg.Guard = guard.Config{Enabled: true, DeepChecks: true}
	factory := func(p pcm.Params) schemes.Scheme {
		return tetris.NewWithOptions(p, tetris.Options{TimeAwareFlip: true})
	}
	plain, err := Run(prof, factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Run(prof, reversed(t, factory), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Ctrl.Presets == 0 || rev.Guard.PresetPlans == 0 {
		t.Fatalf("PreSET never ran: %+v", rev.Guard)
	}
	sameRun(t, plain, rev, cfg.Seed)
}

// TestCrashPulseOrderIsUnobservable runs the contract through a power
// cut: the intent log sorts its own copy of each plan, so the cut lands
// on the same pulse, the same intents survive with the same progress,
// and recovery reports the same verdicts.
func TestCrashPulseOrderIsUnobservable(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	for _, mk := range orderFactories {
		t.Run(mk.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Crash = crash.Config{AtPulse: 3_000}
			cut := func(f schemes.Factory) (Result, *crash.Image, *crash.Report) {
				t.Helper()
				res, err := Run(prof, f, cfg)
				var ce *crash.CutError
				if !errors.As(err, &ce) {
					t.Fatalf("run did not stop at a power cut: %v", err)
				}
				rep, err := Recover(ce.Image)
				if err != nil {
					t.Fatal(err)
				}
				return res, ce.Image, rep
			}
			plainRes, plainImg, plainRep := cut(mk.factory)
			revRes, revImg, revRep := cut(reversed(t, mk.factory))
			sameRun(t, plainRes, revRes, cfg.Seed)
			if plainImg.CutAt != revImg.CutAt || plainImg.PulsesIssued != revImg.PulsesIssued ||
				plainImg.WritesCompleted != revImg.WritesCompleted {
				t.Errorf("cut moved: plain at %v after %d pulses/%d writes, reversed at %v after %d/%d",
					plainImg.CutAt, plainImg.PulsesIssued, plainImg.WritesCompleted,
					revImg.CutAt, revImg.PulsesIssued, revImg.WritesCompleted)
			}
			if len(plainImg.Intents) == 0 {
				t.Fatal("no intents in flight at the cut")
			}
			if !reflect.DeepEqual(plainImg.Intents, revImg.Intents) {
				t.Errorf("surviving intents differ:\nplain:    %+v\nreversed: %+v", plainImg.Intents, revImg.Intents)
			}
			if !reflect.DeepEqual(plainRep, revRep) {
				t.Errorf("recovery reports differ:\nplain:    %+v\nreversed: %+v", plainRep, revRep)
			}
		})
	}
}
