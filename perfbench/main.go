// Command perfbench is the repository's benchmark: it runs one workload
// of full-system simulations back to back for a fixed host time and
// reports simulated instructions per host second, set-up time, memory
// and allocations, with the simulated results checked for determinism
// and against the paper's orderings. With -trace 1 it instead reports
// where host time goes, layer by layer.
//
// Usage, from the repository root (run.sh builds and then runs this):
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
//
// Human-readable provenance, digest and tables come first; the last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	setupReps   = 5  // set-ups per run; setup_s is their median
	warmDivisor = 50 // warm-up simulations run budget/warmDivisor instructions per core
	minReps     = 3  // timed repetitions even when one outlasts -seconds
	replayReps  = 3  // isolated replays per layer; the median is reported
)

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload: paper-sweep, write-heavy or cached-read")
	seed := flag.Int64("seed", 1, "workload seed (non-zero)")
	seconds := flag.Int("seconds", 20, "host seconds of timed repetitions")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	s, err := specByName(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1 || *seed == 0) {
		err = fmt.Errorf("need -seconds >= 1, -trace 0 or 1 and a non-zero -seed")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := &bench{spec: s, seed: *seed, seconds: time.Duration(*seconds) * time.Second, start: start}
	metrics, err := b.run(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range b.problems {
		fmt.Println("problem:", p)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0 && len(b.problems) == 0, b.attempted, b.failed, map[string]metric{}}
	for _, m := range metrics {
		out.Metrics[m.name] = m
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported number.
type metric struct {
	name  string
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one benchmark run: a workload, a seed and the tallies of its
// output checks.
type bench struct {
	spec    spec
	seed    int64
	seconds time.Duration
	start   time.Time

	attempted, failed int
	problems          []string
}

// account checks a repetition's outcomes against the reference
// repetition and adds them to the tallies.
func (b *bench) account(label string, outs, ref []simOut) {
	b.attempted += len(outs)
	f, probs := checkRep(b.spec, outs, ref)
	b.failed += f
	for _, p := range probs {
		b.problems = append(b.problems, label+": "+p)
	}
}

// prepare is the benchmark's set-up: resolve the workload's simulations
// and run each once at a reduced budget, so that lazy initialization and
// heap growth are paid before timing starts. It returns the CPU time it
// took.
func (b *bench) prepare() ([]job, time.Duration, error) {
	t0 := cpuTime()
	jobs, err := b.spec.jobs(b.seed, b.spec.budget)
	if err != nil {
		return nil, 0, err
	}
	warm, err := b.spec.jobs(b.seed, b.spec.budget/warmDivisor)
	if err != nil {
		return nil, 0, err
	}
	outs := runJobs(warm, hooks{})
	elapsed := cpuTime() - t0
	for i, o := range outs {
		b.attempted++
		if o.err != nil {
			b.failed++
			b.problems = append(b.problems, fmt.Sprintf("warm-up simulation %d: %v", i, o.err))
		}
	}
	return jobs, elapsed, nil
}

// repTiming is the host cost of one timed repetition.
type repTiming struct {
	wall    time.Duration
	cpu     time.Duration // process CPU time, all threads
	instr   int64         // simulated instructions retired, all cores, all simulations
	mallocs uint64        // heap allocations during the repetition
}

// timedRep runs one repetition after a GC, so that garbage from the
// previous one is not collected on this one's clock.
func timedRep(jobs []job, h hooks) ([]simOut, repTiming) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	outs := runJobs(jobs, h)
	wall, cpu := time.Since(t0), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	var instr int64
	for _, o := range outs {
		for _, c := range o.res.Cores {
			instr += c.Retired
		}
	}
	return outs, repTiming{wall: wall, cpu: cpu, instr: instr, mallocs: m1.Mallocs - m0.Mallocs}
}

// cpuTime is the CPU time the process has used so far, user plus
// system, over all its threads. On a shared host it excludes the time
// the process waited for a CPU, which makes it a steadier clock than the
// wall for a single-threaded simulation.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run performs the whole benchmark run and returns the metrics to
// report: the end-to-end set, or with traced the per-layer set.
func (b *bench) run(traced bool) ([]metric, error) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v\n", b.spec.name, b.seed, int(b.seconds.Seconds()), traced)
	prov, err := json.Marshal(provenance(b.seed))
	if err != nil {
		return nil, err
	}
	fmt.Println("provenance", string(prov))

	var jobs []job
	setups := make([]float64, setupReps)
	for i := range setups {
		var d time.Duration
		if jobs, d, err = b.prepare(); err != nil {
			return nil, err
		}
		setups[i] = d.Seconds()
	}
	toFirst := time.Since(b.start)

	// Untimed: the guard repetition (invariant checks plus epoch
	// telemetry, both passive) and, traced, the capture repetition that
	// records each simulation's write stream and event counts.
	guardOuts := runJobs(jobs, hooks{guard: true})
	var capture *tracer
	var captureOuts []simOut
	if traced {
		capture = &tracer{capture: true}
		captureOuts = runJobs(jobs, capture.hooks(len(jobs)))
	}

	var ref []simOut
	var plain, timed []repTiming
	var planPerRep []float64
	inPlace := &tracer{}
	loop := time.Now()
	for i := 0; i < minReps || time.Since(loop) < b.seconds; i++ {
		outs, t := timedRep(jobs, hooks{})
		if ref == nil {
			ref = outs
		}
		b.account("timed repetition", outs, ref)
		plain = append(plain, t)
		if traced {
			before := len(inPlace.planNs)
			outs, t := timedRep(jobs, inPlace.hooks(len(jobs)))
			b.account("traced repetition", outs, ref)
			timed = append(timed, t)
			planPerRep = append(planPerRep, float64(sum(inPlace.planNs[before:])))
		}
	}
	b.account("guard repetition", guardOuts, ref)
	if traced {
		b.account("capture repetition", captureOuts, ref)
	}
	fmt.Printf("digest %s (%d simulations per repetition; %d timed repetitions; guard repetition checked)\n",
		repDigest(ref), len(ref), len(plain))

	e2e := b.endToEnd(ref, plain, setups)
	fmt.Printf("set-up: median %.4fs of %d; %.3fs from process start to the first timed simulation\n",
		median(setups), len(setups), toFirst.Seconds())
	printTable("end-to-end metrics", e2e)
	if !traced {
		return e2e, nil
	}
	layers, err := b.perLayer(jobs, ref, guardOuts, plain, timed, planPerRep, inPlace, capture)
	if err != nil {
		return nil, err
	}
	printTable("per-layer metrics", layers)
	return layers, nil
}

// endToEnd computes the end-to-end metrics. fail_ratio and
// sim_write_units are printed but not returned for the JSON line: both
// read 0 on healthy runs of some workload (sim_write_units is reported
// per layer instead), and failures travel in its attempted and failed
// fields.
func (b *bench) endToEnd(ref []simOut, reps []repTiming, setups []float64) []metric {
	rates := make([]float64, len(reps))
	wallRates := make([]float64, len(reps))
	var instr int64
	var mallocs uint64
	for i, r := range reps {
		rates[i] = float64(r.instr) / r.cpu.Seconds()
		wallRates[i] = float64(r.instr) / r.wall.Seconds()
		instr += r.instr
		mallocs += r.mallocs
	}
	for _, rs := range []struct {
		clock string
		v     []float64
	}{{"CPU", rates}, {"wall", wallRates}} {
		sort.Float64s(rs.v)
		fmt.Printf("instr_per_s by %s time over %d repetitions: min %.4g median %.4g max %.4g\n",
			rs.clock, len(rs.v), rs.v[0], median(rs.v), rs.v[len(rs.v)-1])
	}
	var ipc, wu float64
	for _, o := range ref {
		ipc += o.res.IPC / float64(len(ref))
		wu += o.res.WriteUnits / float64(len(ref))
	}
	fmt.Printf("fail_ratio %.4g ratio (%d of %d simulations failed)\n",
		float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	fmt.Printf("sim_write_units %.17g units (simulated, mean over simulations)\n", wu)
	return []metric{
		{name: "instr_per_s", Value: median(rates), Unit: "1/s"},
		{name: "setup_s", Value: median(setups), Unit: "s"},
		{name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MiB"},
		{name: "allocs_per_kinstr", Value: float64(mallocs) / (float64(instr) / 1000), Unit: "count"},
		{name: "sim_ipc", Value: ipc, Unit: "instr/cycle"},
	}
}

func printTable(title string, ms []metric) {
	fmt.Println(title + ":")
	for _, m := range ms {
		fmt.Printf("  %-32s %-22.10g %s\n", m.name, m.Value, m.Unit)
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// median returns the median of xs (sorting a copy).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
