package workload

import (
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand pins the in-package source to math/rand draw
// for draw: every method the generator uses, Intn at every width
// flipMask draws, and Zipf samplers layered on both through rand.New,
// interleaved with direct draws so they are shown to share one state.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -7, 1 << 40}
	for _, seed := range []int64{1, 7, 101} {
		for core := int64(0); core < 4; core++ {
			seeds = append(seeds, seed*1000003+core*7919+1)
		}
	}
	for _, seed := range seeds {
		src := newSource(seed)
		ref := rand.New(rand.NewSource(seed))
		fail := func(what string, i int, got, want any) {
			t.Helper()
			t.Fatalf("seed %d: %s draw %d = %v, math/rand gives %v", seed, what, i, got, want)
		}
		for i := range 2000 {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				fail("Uint64", i, got, want)
			}
			if got, want := src.Int63(), ref.Int63(); got != want {
				fail("Int63", i, got, want)
			}
			if got, want := src.Float64(), ref.Float64(); got != want {
				fail("Float64", i, got, want)
			}
		}
		for n := 1; n <= 64; n++ {
			for i := range 50 {
				if got, want := src.Intn(n), ref.Intn(n); got != want {
					fail("Intn", n*100+i, got, want)
				}
			}
		}
		zs := rand.NewZipf(rand.New(src), 1.2, 1, 8191)
		zr := rand.NewZipf(ref, 1.2, 1, 8191)
		for i := range 2000 {
			if got, want := zs.Uint64(), zr.Uint64(); got != want {
				fail("Zipf", i, got, want)
			}
			if got, want := src.Intn(1+i%64), ref.Intn(1+i%64); got != want {
				fail("interleaved Intn", i, got, want)
			}
		}
	}
}

// TestSourceIntnRejection drives Intn's redraw branch, which random
// seeds reach about once in 2^25 draws: the next draw is forced to the
// largest 31-bit value, which Int31n rejects for every n that is not a
// power of two. math/rand's own Intn over a copy of the state must agree
// on the result and on the draws consumed.
func TestSourceIntnRejection(t *testing.T) {
	for n := 1; n <= 64; n++ {
		s := newSource(3)
		// The next draw adds vec[feed-1] and vec[tap-1]; tap starts at 0.
		s.vec[s.tap-1+srcLen] = 0
		s.vec[s.feed-1] = 0x7fffffff << 32
		c := *s
		if got, want := s.Intn(n), rand.New(&c).Intn(n); got != want {
			t.Fatalf("Intn(%d) after a rejected draw = %d, math/rand gives %d", n, got, want)
		}
		if s.Uint64() != c.Uint64() {
			t.Fatalf("Intn(%d) consumed a different number of draws than math/rand", n)
		}
	}
}

// TestFlipMaskDrawsLikeFisherYates: flipMask's mask and RNG consumption
// equal a partial Fisher-Yates over a fresh identity slice driven by
// math/rand, for every n including the clamp above 64.
func TestFlipMaskDrawsLikeFisherYates(t *testing.T) {
	g := &Generator{src: newSource(42)}
	ref := rand.New(rand.NewSource(42))
	for round := range 3 {
		for n := 0; n <= 70; n++ {
			perm := make([]int, 64)
			for i := range perm {
				perm[i] = i
			}
			var want uint64
			for i := 0; i < min(n, 64); i++ {
				j := i + ref.Intn(64-i)
				perm[i], perm[j] = perm[j], perm[i]
				want |= 1 << perm[i]
			}
			if got := g.flipMask(n); got != want {
				t.Fatalf("round %d n=%d: mask %#x, want %#x", round, n, got, want)
			}
		}
	}
	if g.src.Uint64() != ref.Uint64() {
		t.Fatal("flipMask consumed a different number of draws")
	}
}
