package main

import (
	"fmt"
	"sort"
	"time"

	"tetriswrite/internal/units"
)

// perLayer computes the per-layer metrics of a traced run and prints the
// layer attribution table. Host-time shares are fractions of the median
// untraced repetition: in place for planning (timed through the wrapped
// factory in the traced repetitions), by isolated replay for the
// workload generator and the caches, and the rest as the residual.
func (b *bench) perLayer(jobs []job, ref, guardOuts []simOut, plain, timed []repTiming,
	planPerRep []float64, inPlace, capture *tracer) ([]metric, error) {
	untraced := medianWall(plain)
	planInPlace := median(planPerRep)

	var writes int
	for _, st := range capture.streams {
		writes += len(st.addrs)
	}
	var planAllocs uint64
	replays := make([]float64, replayReps)
	for i := range replays {
		d, m := replaySchemes(jobs, capture.streams)
		replays[i] = float64(d)
		if i == 0 {
			planAllocs = m
		}
	}
	planReplay := time.Duration(median(replays))

	var nextCalls int64
	for i := range replays {
		d, n, _ := replayWorkload(jobs, false)
		replays[i], nextCalls = float64(d), n
	}
	genReplay := time.Duration(median(replays))

	var cacheReplay time.Duration
	var accesses int
	if b.spec.caches {
		_, _, accs := replayWorkload(jobs, true)
		accesses = len(accs)
		cfg := jobs[0].cfg
		cfg.Normalize()
		for i := range replays {
			d, err := replayCache(accs, cfg.CPUClock, cfg.Params.LineBytes)
			if err != nil {
				return nil, err
			}
			replays[i] = float64(d)
		}
		cacheReplay = time.Duration(median(replays))
	}

	share := func(d time.Duration) float64 { return float64(d) / float64(untraced) }
	residual := untraced - time.Duration(planInPlace) - genReplay - cacheReplay
	fmt.Printf("layer attribution (host time per repetition; shares of the median untraced repetition, %v):\n", untraced)
	fmt.Printf("  %-10s %-14s %-16s %s\n", "layer", "in place", "isolated replay", "share")
	fmt.Printf("  %-10s %-14s %-16v %.4f\n", "workload", "-", genReplay, share(genReplay))
	fmt.Printf("  %-10s %-14v %-16v %.4f\n", "schemes", time.Duration(planInPlace), planReplay, share(time.Duration(planInPlace)))
	fmt.Printf("  %-10s %-14s %-16v %.4f\n", "cache", "-", cacheReplay, share(cacheReplay))
	fmt.Printf("  %-10s %-31s %.4f\n", "residual", "(memctrl, cpu, sim, stats)", share(residual))

	var c layerCounts
	for _, o := range ref {
		c.add(o)
	}
	hits, lookups := schedCacheTotals(guardOuts)
	ns := append([]int64(nil), inPlace.planNs...)
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	kinstr := float64(plain[0].instr) / 1000
	return []metric{
		{name: "schemes.plan_calls", Value: float64(len(capture.planNs)), Unit: "count"},
		{name: "schemes.plan_ns_p50", Value: quantile(ns, 0.50), Unit: "ns"},
		{name: "schemes.plan_ns_p99", Value: quantile(ns, 0.99), Unit: "ns"},
		{name: "schemes.plan_share", Value: share(time.Duration(planInPlace)), Unit: "ratio"},
		{name: "schemes.replay_ns_per_write", Value: ratio(float64(planReplay), float64(writes)), Unit: "ns"},
		{name: "schemes.replay_allocs_per_write", Value: ratio(float64(planAllocs), float64(writes)), Unit: "count"},
		{name: "tetris.sched_cache_hit_ratio", Value: ratio(hits, lookups), Unit: "ratio"},
		{name: "workload.next_ns", Value: ratio(float64(genReplay), float64(nextCalls)), Unit: "ns"},
		{name: "workload.share", Value: share(genReplay), Unit: "ratio"},
		{name: "sim.events", Value: float64(capture.events), Unit: "count"},
		{name: "sim.events_per_kinstr", Value: float64(capture.events) / kinstr, Unit: "count"},
		{name: "sim.events_per_s", Value: float64(capture.events) / untraced.Seconds(), Unit: "1/s"},
		{name: "sim.peak_pending_sampled", Value: float64(capture.peakPending), Unit: "count"},
		{name: "cache.l1_hit_rate", Value: ratio(c.l1Hits, c.l1Accesses), Unit: "ratio"},
		{name: "cache.l3_hit_rate", Value: ratio(c.l3Hits, c.l3Accesses), Unit: "ratio"},
		{name: "cache.accesses", Value: c.l1Accesses, Unit: "count"},
		{name: "cache.replay_ns_per_access", Value: ratio(float64(cacheReplay), float64(accesses)), Unit: "ns"},
		{name: "memctrl.reads", Value: c.reads, Unit: "count"},
		{name: "memctrl.writes", Value: c.writes, Unit: "count"},
		{name: "memctrl.forwarded_ratio", Value: ratio(c.forwarded, c.reads), Unit: "ratio"},
		{name: "memctrl.drains", Value: c.drains, Unit: "count"},
		{name: "memctrl.stall_rejects", Value: c.stallRejects, Unit: "count"},
		{name: "memctrl.read_latency_ns", Value: ratio(c.readLatNs, c.readSamples), Unit: "ns"},
		{name: "memctrl.write_latency_ns", Value: ratio(c.writeLatNs, c.writeSamples), Unit: "ns"},
		{name: "cpu.read_stall_share", Value: ratio(c.readStall, c.coreTime), Unit: "ratio"},
		{name: "cpu.write_stall_share", Value: ratio(c.writeStall, c.coreTime), Unit: "ratio"},
		{name: "pcm.bit_sets", Value: c.bitSets, Unit: "count"},
		{name: "pcm.bit_resets", Value: c.bitResets, Unit: "count"},
		{name: "sim_write_units", Value: c.writeUnits / float64(len(ref)), Unit: "units"},
		{name: "residual_share", Value: share(residual), Unit: "ratio"},
		{name: "trace_overhead", Value: float64(medianWall(timed))/float64(untraced) - 1, Unit: "ratio"},
	}, nil
}

// layerCounts sums the simulated per-layer counters over a repetition's
// simulations.
type layerCounts struct {
	l1Hits, l1Accesses, l3Hits, l3Accesses           float64
	reads, writes, forwarded, drains, stallRejects   float64
	readLatNs, readSamples, writeLatNs, writeSamples float64
	readStall, writeStall, coreTime                  float64
	bitSets, bitResets, writeUnits                   float64
}

func (c *layerCounts) add(o simOut) {
	r := o.res
	if n := len(r.Caches); n > 0 {
		l1, l3 := r.Caches[0], r.Caches[n-1]
		c.l1Hits += float64(l1.Hits)
		c.l1Accesses += float64(l1.Hits + l1.Misses)
		c.l3Hits += float64(l3.Hits)
		c.l3Accesses += float64(l3.Hits + l3.Misses)
	}
	st := r.Ctrl
	c.reads += float64(st.Reads)
	c.writes += float64(st.Writes)
	c.forwarded += float64(st.ForwardedReads)
	c.drains += float64(st.Drains)
	c.stallRejects += float64(st.StallRejects)
	c.readSamples += float64(st.ReadLatency.Count())
	c.readLatNs += float64(st.ReadLatency.Count()) * st.ReadLatency.Mean().Nanoseconds()
	c.writeSamples += float64(st.WriteLatency.Count())
	c.writeLatNs += float64(st.WriteLatency.Count()) * st.WriteLatency.Mean().Nanoseconds()
	for _, cs := range r.Cores {
		c.readStall += float64(cs.ReadStall)
		c.writeStall += float64(cs.WriteStall)
		c.coreTime += float64(units.Duration(cs.FinishedAt))
	}
	c.bitSets += float64(st.BitSets)
	c.bitResets += float64(st.BitResets)
	c.writeUnits += r.WriteUnits
}

// schedCacheTotals sums the Tetris schedule memo-cache counters over the
// final telemetry epoch of each simulation that exports them.
func schedCacheTotals(outs []simOut) (hits, lookups float64) {
	for _, o := range outs {
		tel := o.res.Telemetry
		if tel == nil {
			continue
		}
		h, m := tel.Series("tetris.sched_cache.hits"), tel.Series("tetris.sched_cache.misses")
		if len(h) == 0 || len(m) == 0 {
			continue
		}
		hits += h[len(h)-1]
		lookups += h[len(h)-1] + m[len(m)-1]
	}
	return hits, lookups
}

func medianWall(reps []repTiming) time.Duration {
	w := make([]float64, len(reps))
	for i, r := range reps {
		w[i] = float64(r.wall)
	}
	return time.Duration(median(w))
}

// quantile is the nearest-rank q-quantile of sorted xs (0 when empty).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	return float64(sorted[i])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
