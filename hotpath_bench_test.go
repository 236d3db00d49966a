package tetriswrite

// Micro-benchmarks for the three layers the structure-of-arrays rewrite
// targets (see DESIGN.md, Performance): the word-parallel cell store,
// the batched pulse emission and the flat cache hit path, plus the
// workload generator. They are part of the gated set (Makefile
// BENCHFILTER, ci.yml bench-gate) so the fast paths cannot silently fall
// back to the scalar code — a fallback shows up as an ns/op and
// allocs/op cliff.

import (
	"math/bits"
	"math/rand"
	"testing"

	"tetriswrite/internal/cache"
	"tetriswrite/internal/memctrl"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

// BenchmarkArrayFlipCount measures the SoA cell store's read surface:
// one full-line decode into a scratch buffer plus a flip-tag popcount,
// the operation the crash-recovery classifiers and the deep-check guard
// run per inspected line. On the default x16 geometry this is the
// word-parallel path — 4 cells per XOR — and must stay at 0 allocs/op.
func BenchmarkArrayFlipCount(b *testing.B) {
	par := pcm.DefaultParams()
	arr := schemes.NewArray(par)
	rng := rand.New(rand.NewSource(3))
	const lines = 64
	line := make([]byte, par.LineBytes)
	for a := 0; a < lines; a++ {
		rng.Read(line)
		arr.SyncLogical(pcm.LineAddr(a), line)
	}
	// Set some flip tags the way they arise in practice: replay FNW
	// plans whose dense updates cross the inversion threshold.
	s := schemes.NewFlipNWrite(par)
	old := make([]byte, par.LineBytes)
	for a := 0; a < lines; a++ {
		arr.LogicalInto(old, pcm.LineAddr(a))
		rng.Read(line)
		arr.Apply(pcm.LineAddr(a), s.PlanWrite(pcm.LineAddr(a), old, line))
	}
	scratch := make([]byte, par.LineBytes)
	var flips int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := pcm.LineAddr(i % lines)
		arr.LogicalInto(scratch, addr)
		flips += bits.OnesCount64(arr.FlipTags(addr))
	}
	if flips == 0 {
		b.Fatal("no flip tags set: the benchmark is not exercising the tag path")
	}
}

// BenchmarkSchemePlanWriteDense is the batched-emission stress: every
// cell of the line changes, so unlike the workload-shaped
// BenchmarkSchemePlanStream the cost is dominated by emitting pulse records for all 32 units —
// the mask-walk in emitStreams and the cursor refill in the Tetris
// domain emitter. Steady-state (freelist-warm), so 0 allocs/op.
func BenchmarkSchemePlanWriteDense(b *testing.B) {
	for _, name := range []string{"dcw", "fnw", "tetris"} {
		b.Run(name, func(b *testing.B) {
			s, err := NewScheme(name, DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			rec, _ := s.(schemes.PlanRecycler)
			rng := rand.New(rand.NewSource(9))
			old := make([]byte, 64)
			new := make([]byte, 64)
			rng.Read(old)
			for i := range new {
				new[i] = ^old[i] // every bit changes: worst-case emission
			}
			cycle := func(i int) {
				plan := s.PlanWrite(LineAddr(i%256), old, new)
				_ = plan.ServiceTime()
				if rec != nil {
					rec.RecyclePlan(plan)
				}
			}
			for i := 0; i < 256; i++ {
				cycle(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(i)
			}
		})
	}
}

// BenchmarkCacheHit measures the L1 hit path of the cache hierarchy:
// one set-indexed probe of the flat tag array plus the LRU promotion
// shuffle and the data copy-out. One op is one whole read transaction
// through the simulation engine, so the number includes the event
// scheduling the hit rides on.
func BenchmarkCacheHit(b *testing.B) {
	eng := &sim.Engine{}
	dev := pcm.MustNewDevice(pcm.DefaultParams())
	ctrl := memctrl.New(eng, dev, schemes.NewDCW, memctrl.Config{OpportunisticWrites: true})
	h, err := cache.New(eng, ctrl, cache.DefaultLevels(units.NewClock(2e9)))
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 64)
	eng.At(0, func() { h.SubmitWrite(5, data, nil) })
	eng.Run()
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SubmitRead(5, func(units.Time, []byte) { hits++ })
		eng.Run()
	}
	b.StopTimer()
	if hits != b.N {
		b.Fatalf("%d of %d reads completed", hits, b.N)
	}
}

// BenchmarkGeneratorNext measures the workload generator's steady state,
// one Next per op on core 0 of a 4-core program: vips, the write-heavy
// profile whose payload mutation draws dozens of bit positions per
// write, and canneal, the read-dominated one whose cost is mostly the
// think-gap and Zipf address draws. Writes copy the line payload out,
// so allocs/op is the write fraction rounded down to 0.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, name := range []string{"vips", "canneal"} {
		b.Run(name, func(b *testing.B) {
			prof, err := workload.ProfileByName(name)
			if err != nil {
				b.Fatal(err)
			}
			g := workload.NewProgram(prof, 4, 1, pcm.DefaultParams()).Generator(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = g.Next()
			}
		})
	}
}
