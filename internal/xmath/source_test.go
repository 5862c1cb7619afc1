package xmath

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds are the seeds TestSourceMatchesMathRand checks: the edges
// of Seed's reduction modulo 2^31-1 (zero, which math/rand replaces by
// 89482311, and the values that reduce to it or next to it), the int64
// extremes, and a spread of ordinary and hashed seeds like the ones
// the tree builder and the sweeps use.
func sourceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, int32max, -int32max, int32max - 1, int32max + 1,
		-int32max - 1, 2 * int32max, -2 * int32max, 89482311, -89482311,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		math.MinInt32, math.MaxInt32, 1 << 40, -(1 << 40),
	}
	for i := range 3000 {
		seeds = append(seeds, int64(Hash64(uint64(i), 0x5eed, 0)), int64(i)*7919-1_000_000)
	}
	return seeds
}

// TestSourceMatchesMathRand: for every seed, a reseeded Source behind
// rand.New draws what a fresh rand.New(rand.NewSource(seed)) draws,
// through Int63, Uint64, Intn (both of its reductions) and Float64.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := sourceSeeds()
	if testing.Short() {
		seeds = seeds[:600]
	}
	got := rand.New(new(Source))
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got.Seed(seed)
		for k := range 400 {
			var g, w any
			switch k % 5 {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				g, w = got.Intn(k+1), want.Intn(k+1)
			case 3:
				g, w = got.Intn(1<<40+k), want.Intn(1<<40+k)
			default:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			}
			if g != w {
				t.Fatalf("seed %d draw %d: got %v, want %v", seed, k, g, w)
			}
		}
	}
}

// TestSourceLongStream: a long stream wraps the register several times
// and still matches.
func TestSourceLongStream(t *testing.T) {
	for _, seed := range []int64{0, 42, math.MinInt64} {
		var s Source
		s.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := range 20 * rngLen {
			if g, w := s.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: got %d, want %d", seed, k, g, w)
			}
		}
	}
}

// BenchmarkSeed compares one Seed against math/rand's.
func BenchmarkSeed(b *testing.B) {
	b.Run("xmath", func(b *testing.B) {
		var s Source
		for i := range b.N {
			s.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(0)
		for i := range b.N {
			s.Seed(int64(i))
		}
	})
}
