package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"tetriswrite/internal/exp"
	"tetriswrite/internal/guard"
	"tetriswrite/internal/memctrl"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/system"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

// spec is one benchmark workload: a fixed set of simulations, run one at
// a time, that together form one repetition.
type spec struct {
	name     string
	profiles []string // empty: all eight Table III profiles
	schemes  []string // paper labels from exp.SchemeSet; empty: all five
	budget   int64    // instructions per core
	caches   bool     // interpose the Table II L1/L2/L3 hierarchy
	ordering bool     // check the Figure 10 and Figure 13 orderings
}

var specs = []spec{
	// The Figure 11-14 job: 8 profiles x 5 paper schemes, caches off.
	{name: "paper-sweep", budget: 1_000_000, ordering: true},
	// The write-heaviest profile under Tetris Write: planning dominates.
	{name: "write-heavy", profiles: []string{"vips"}, schemes: []string{"tetris"}, budget: 8_000_000},
	// Read-dominated canneal behind cold caches: at this size no write
	// reaches PCM, so the planner is idle.
	{name: "cached-read", profiles: []string{"canneal"}, schemes: []string{"tetris"}, budget: 40_000_000, caches: true},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// job is one simulation of a repetition.
type job struct {
	prof    workload.Profile
	scheme  string
	factory schemes.Factory
	cfg     system.Config
}

// jobs resolves the spec into its simulations at the given per-core
// budget, in profile-major, paper-scheme-minor order.
func (s spec) jobs(seed, budget int64) ([]job, error) {
	profs := workload.Profiles()
	if len(s.profiles) > 0 {
		profs = profs[:0:0]
		for _, n := range s.profiles {
			p, err := workload.ProfileByName(n)
			if err != nil {
				return nil, err
			}
			profs = append(profs, p)
		}
	}
	set := exp.SchemeSet()
	if len(s.schemes) > 0 {
		var picked []exp.NamedFactory
		for _, n := range s.schemes {
			found := false
			for _, nf := range set {
				if nf.Name == n {
					picked, found = append(picked, nf), true
				}
			}
			if !found {
				return nil, fmt.Errorf("unknown paper scheme %q", n)
			}
		}
		set = picked
	}
	out := make([]job, 0, len(profs)*len(set))
	for _, p := range profs {
		for _, nf := range set {
			out = append(out, job{prof: p, scheme: nf.Name, factory: nf.Factory, cfg: system.Config{
				Params:      pcm.DefaultParams(),
				InstrBudget: budget,
				Seed:        seed,
				UseCaches:   s.caches,
			}})
		}
	}
	return out, nil
}

// hooks alter how a repetition runs its simulations without changing
// what they compute: a traced repetition wraps the factory and listens
// to the heartbeat, the guard repetition turns on invariant checks and
// epoch telemetry.
type hooks struct {
	factory   func(i int, f schemes.Factory) (schemes.Factory, error)
	heartbeat func(sim.Progress)
	afterRun  func() // after each simulation
	guard     bool
}

// guardEpoch is the telemetry epoch of the guard repetition.
const guardEpoch = 100 * units.Microsecond

// simOut is the outcome of one simulation.
type simOut struct {
	res    system.Result
	digest [32]byte
	err    error
}

// runJobs runs every job once, in order, and returns their outcomes.
func runJobs(jobs []job, h hooks) []simOut {
	out := make([]simOut, len(jobs))
	for i, j := range jobs {
		f := j.factory
		if h.factory != nil {
			var err error
			if f, err = h.factory(i, f); err != nil {
				out[i].err = err
				continue
			}
		}
		cfg := j.cfg
		cfg.Heartbeat = h.heartbeat
		if h.guard {
			cfg.Guard = guard.Config{Enabled: true}
			cfg.Epoch = guardEpoch
		}
		res, err := runOne(j.prof, f, cfg)
		out[i] = simOut{res: res, err: err}
		if err == nil {
			out[i].digest = digest(res, cfg.Seed)
		}
		if h.afterRun != nil {
			h.afterRun()
		}
	}
	return out
}

// runOne is system.Run with any panic that escapes it (system.Run
// converts panics inside the simulation, not in its own set-up) turned
// into an error.
func runOne(p workload.Profile, f schemes.Factory, cfg system.Config) (res system.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return system.Run(p, f, cfg)
}

// ctrlCounters are the memctrl.Stats counters a digest covers: every
// count, plus the latency sample counts (their means are in Summary).
type ctrlCounters struct {
	Reads, Writes, ForwardedReads, Coalesced  int64
	ReadSamples, WriteSamples                 int64
	WriteUnits                                float64
	BitSets, BitResets, Drains, DrainExits    int64
	StallRejects, Pauses, Cancellations       int64
	Presets, PresetDropped, SubarrayOverlaps  int64
	Verifies, Retries, RetrySets, RetryResets int64
	HardErrors, VerifyOverheadPs              int64
}

func countersOf(st memctrl.Stats) ctrlCounters {
	return ctrlCounters{
		st.Reads, st.Writes, st.ForwardedReads, st.Coalesced,
		st.ReadLatency.Count(), st.WriteLatency.Count(),
		st.WriteUnits,
		st.BitSets, st.BitResets, st.Drains, st.DrainExits,
		st.StallRejects, st.Pauses, st.Cancellations,
		st.Presets, st.PresetDropped, st.SubarrayOverlaps,
		st.Verifies, st.Retries, st.RetrySets, st.RetryResets,
		st.HardErrors, int64(st.VerifyOverhead),
	}
}

// digest hashes the canonical JSON of the run's Summary plus the
// controller's counters: two runs with equal digests reported the same
// simulated results.
func digest(r system.Result, seed int64) [32]byte {
	b, err := json.Marshal(struct {
		Summary system.Summary
		Ctrl    ctrlCounters
	}{system.Summarize(r, seed), countersOf(r.Ctrl)})
	if err != nil {
		panic(err) // only basic types: cannot fail
	}
	return sha256.Sum256(b)
}

// repDigest combines the per-simulation digests of one repetition.
func repDigest(outs []simOut) string {
	h := sha256.New()
	for _, o := range outs {
		h.Write(o.digest[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkRep returns the number of failed simulations in a repetition:
// those that returned an error, whose digest differs from the
// reference repetition's (when ref is non-nil), or that belong to a
// paper-sweep repetition missing the paper's orderings.
func checkRep(s spec, outs, ref []simOut) (failed int, problems []string) {
	ok := true
	for i, o := range outs {
		switch {
		case o.err != nil:
			failed++
			problems = append(problems, fmt.Sprintf("simulation %d: %v", i, o.err))
			ok = false
		case ref != nil && o.digest != ref[i].digest:
			failed++
			problems = append(problems, fmt.Sprintf("simulation %d: digest differs from the reference repetition", i))
		}
	}
	if s.ordering && ok {
		if err := checkOrdering(outs, len(exp.SchemeSet())); err != nil {
			return len(outs), append(problems, err.Error())
		}
	}
	return failed, problems
}

// checkOrdering verifies the paper's scheme orderings on one sweep:
// Figure 10's mean write units strictly fall, and Figure 13's geomean
// IPC normalized to the baseline strictly rises, in paper scheme order.
func checkOrdering(outs []simOut, nSchemes int) error {
	nProf := len(outs) / nSchemes
	wu := make([]float64, nSchemes)
	logIPC := make([]float64, nSchemes)
	for p := 0; p < nProf; p++ {
		base := outs[p*nSchemes].res.IPC
		for s := 0; s < nSchemes; s++ {
			r := outs[p*nSchemes+s].res
			wu[s] += r.WriteUnits / float64(nProf)
			logIPC[s] += math.Log(r.IPC/base) / float64(nProf)
		}
	}
	for s := 1; s < nSchemes; s++ {
		if wu[s] >= wu[s-1] {
			return fmt.Errorf("figure 10 ordering broken: mean write units %v", wu)
		}
		if logIPC[s] <= logIPC[s-1] {
			return fmt.Errorf("figure 13 ordering broken: log geomean normalized IPC %v", logIPC)
		}
	}
	return nil
}
