package workload

import (
	"math/bits"
	"math/rand"
)

// source is math/rand's additive lagged-Fibonacci generator — the
// rngSource behind rand.NewSource — held as a concrete type, so the
// generator's draws inline instead of going through rand.Rand's Source
// interface. Each draw is x[n] = x[n-607] + x[n-273] mod 2^64, with the
// same tap/feed walk as rngSource, so a source seeded with s yields
// exactly the stream of rand.New(rand.NewSource(s)) for every method
// below. It implements rand.Source64, so rand.New(src) layers the
// library's other samplers (Zipf) over the same state.
type source struct {
	tap, feed int
	vec       [srcLen]int64
}

const (
	srcLen = 607
	srcTap = 273
)

func newSource(seed int64) *source {
	s := &source{}
	s.Seed(seed)
	return s
}

// Seed puts the source in the state rand.NewSource(seed) starts from.
// That state is not derived by copying math/rand's seeding table:
// draw k stores its output into vec[feed_k], and feed visits every slot
// once in 607 draws, so the first 607 outputs of rand.NewSource(seed)
// are exactly its state after 607 draws. Undoing those draws newest
// first (vec[feed] -= vec[tap]) walks the state back to the start; each
// undo sees vec[tap] as it was at its draw, because the only later write
// to that slot has already been undone.
func (s *source) Seed(seed int64) {
	ref := rand.NewSource(seed).(rand.Source64)
	s.tap, s.feed = 0, srcLen-srcTap
	for range srcLen {
		s.Uint64()
		s.vec[s.feed] = int64(ref.Uint64())
	}
	// tap and feed are back at their seeded positions, which are also the
	// slots of the last draw.
	for range srcLen {
		s.vec[s.feed] -= s.vec[s.tap]
		if s.tap++; s.tap == srcLen {
			s.tap = 0
		}
		if s.feed++; s.feed == srcLen {
			s.feed = 0
		}
	}
}

// Uint64 is rngSource.Uint64.
func (s *source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += srcLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is rngSource.Int63 (and rand.Rand.Int63).
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Float64 is rand.Rand.Float64, including its resample of the rare draw
// that rounds up to 1.
func (s *source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn is rand.Rand.Intn for 1 <= n <= 64 (the widths flipMask draws),
// which is Int31n: redraw while the 31-bit value exceeds the largest
// multiple of n, then reduce mod n. Both the bound and the remainder come
// from intnTable, so no divide is left.
func (s *source) Intn(n int) int {
	b := &intnTable[n]
	for {
		if v := uint32(s.Int63() >> 32); v <= b.max {
			hi, _ := bits.Mul64(b.m*uint64(v), uint64(n))
			return int(hi)
		}
	}
}

// intnBound holds Int31n's rejection bound for one n and Lemire's
// fastmod multiplier ceil(2^64/n): for any 32-bit v,
// v mod n = ((m*v mod 2^64) * n) >> 64.
type intnBound struct {
	max uint32
	m   uint64
}

var intnTable = func() (t [65]intnBound) {
	for n := 1; n <= 64; n++ {
		t[n] = intnBound{
			max: 1<<31 - 1 - (1<<31)%uint32(n),
			m:   ^uint64(0)/uint64(n) + 1,
		}
	}
	return t
}()

// identity64 is the permutation flipMask's shuffle starts from.
var identity64 = func() (p [64]uint8) {
	for i := range p {
		p[i] = uint8(i)
	}
	return p
}()

// flipMask samples n distinct bit positions of a 64-bit data unit by
// partial Fisher-Yates and returns them as a mask, so a unit's mutation
// changes exactly n cells (sampling with replacement would silently
// undershoot through collisions). It draws Intn(64-i) for i < n, the
// same draws as shuffling a fresh identity slice.
func (g *Generator) flipMask(n int) uint64 {
	n = min(n, 64)
	perm := identity64
	var mask uint64
	for i := range n {
		j := i + g.src.Intn(64-i)
		perm[i], perm[j] = perm[j], perm[i]
		mask |= 1 << perm[i]
	}
	return mask
}
