package main

import (
	"runtime"
	"time"

	"tetriswrite/internal/cache"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

// Isolated replays: each re-runs one layer's captured input with nothing
// else in the loop, so its host cost can be read without instrumenting
// the simulator.

// access is one core-level memory operation of a workload stream.
type access struct {
	addr  pcm.LineAddr
	write bool
}

// replayWorkload drives a fresh Program's generators exactly as the
// cores do — Next until the next think gap would cross the per-core
// budget — visiting the cores round-robin. It returns the host time spent
// in the Next calls and their number; with record set it also returns
// the accesses (core-interleaved) for the cache replay.
func replayWorkload(jobs []job, record bool) (elapsed time.Duration, calls int64, accs []access) {
	for _, j := range jobs {
		cfg := j.cfg
		cfg.Normalize()
		prog := workload.NewProgram(j.prof, cfg.Cores, cfg.Seed, cfg.Params)
		gens := make([]*workload.Generator, cfg.Cores)
		for c := range gens {
			gens[c] = prog.Generator(c)
		}
		retired := make([]int64, cfg.Cores)
		start := time.Now()
		for live := len(gens); live > 0; {
			for c, g := range gens {
				if g == nil {
					continue
				}
				op := g.Next()
				calls++
				if op.Think >= cfg.InstrBudget-retired[c] {
					gens[c] = nil
					live--
					continue
				}
				retired[c] += op.Think
				if record {
					accs = append(accs, access{op.Addr, op.Write})
				}
			}
		}
		elapsed += time.Since(start)
	}
	return elapsed, calls, accs
}

// replaySchemes plans every captured write again, in order, on a fresh
// scheme instance per simulation, recycling each plan as the controller
// does. It returns the planning host time and the heap allocations it
// made.
func replaySchemes(jobs []job, streams []writeStream) (elapsed time.Duration, mallocs uint64) {
	fresh := make([]schemes.Scheme, len(jobs))
	for i, j := range jobs {
		fresh[i] = j.factory(j.cfg.Params)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, j := range jobs {
		s, st, lb := fresh[i], streams[i], j.cfg.Params.LineBytes
		rec, _ := s.(schemes.PlanRecycler)
		start := time.Now()
		for k, addr := range st.addrs {
			img := st.data[2*k*lb : 2*(k+1)*lb]
			p := s.PlanWrite(addr, img[:lb], img[lb:])
			if rec != nil {
				rec.RecyclePlan(p)
			}
		}
		elapsed += time.Since(start)
	}
	runtime.ReadMemStats(&m1)
	return elapsed, m1.Mallocs - m0.Mallocs
}

// stubMem is a memory that answers every read at once with a blank line
// and absorbs every write-back, so a cache replay times the hierarchy
// alone.
type stubMem struct {
	eng  *sim.Engine
	line []byte
}

func (m stubMem) SubmitRead(_ pcm.LineAddr, onDone func(at units.Time, data []byte)) bool {
	onDone(m.eng.Now(), m.line)
	return true
}
func (m stubMem) SubmitWrite(pcm.LineAddr, []byte, func(units.Time)) bool { return true }
func (m stubMem) WhenWriteSpace(fn func())                                { m.eng.After(0, fn) }

// replayCache pushes the access stream through a fresh Table II
// hierarchy over stubMem, draining the engine after each access as a
// blocking core would. It returns the host time spent.
func replayCache(accs []access, clock units.Clock, lineBytes int) (time.Duration, error) {
	eng := sim.NewEngine("")
	line := make([]byte, lineBytes)
	h, err := cache.New(eng, stubMem{eng: eng, line: line}, cache.DefaultLevels(clock))
	if err != nil {
		return 0, err
	}
	readDone := func(units.Time, []byte) {}
	start := time.Now()
	for _, a := range accs {
		if a.write {
			h.SubmitWrite(a.addr, line, nil)
		} else {
			h.SubmitRead(a.addr, readDone)
		}
		eng.Run()
	}
	return time.Since(start), nil
}
