package rngutil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// countingSource is math/rand's own source, counting the draws taken from it.
type countingSource struct {
	rand.Source64
	n int
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.Source64.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.Source64.Uint64()
}

// apply runs one of the rand.Rand methods the module calls, chosen by op,
// and returns what it yields as bits.
func apply(r *rand.Rand, op, arg byte) uint64 {
	switch op % 7 {
	case 0:
		return uint64(r.Int63())
	case 1:
		return r.Uint64()
	case 2:
		return math.Float64bits(r.Float64())
	case 3:
		return uint64(r.Intn(int(arg) + 1))
	case 4:
		return math.Float64bits(r.NormFloat64())
	case 5:
		return math.Float64bits(r.ExpFloat64())
	default:
		var h uint64
		for _, v := range r.Perm(int(arg % 32)) {
			h = h*31 + uint64(v)
		}
		return h
	}
}

// TestNewMatchesMathRand checks that New(seed) yields exactly
// rand.New(rand.NewSource(seed))'s stream, through a mix of rand.Rand
// methods. Each stream runs past draw 1,300 (the register is built at draw
// 274, and the feed index wraps at draws 335 and 942), is reseeded there,
// reseeded again 100 draws later (before its new register is built), and
// runs 700 draws more.
func TestNewMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, lehmerM, -lehmerM, 1 << 31, zeroSeed, math.MinInt64, math.MaxInt64}
	for i := int64(0); i < 1000; i++ {
		seeds = append(seeds, Derive(42, i))
	}
	for _, seed := range seeds {
		got := New(seed)
		ref := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
		want := rand.New(ref)
		i := 0
		for _, until := range []int{1300, 1400, 2100} {
			for ; ref.n < until; i++ {
				op, arg := byte(i), byte(i*37)
				if g, w := apply(got, op, arg), apply(want, op, arg); g != w {
					t.Fatalf("seed %d: call %d (op %d) after %d draws: New gave %#x, math/rand %#x",
						seed, i, op%7, ref.n, g, w)
				}
			}
			reseed := Derive(seed, int64(until))
			got.Seed(reseed)
			want.Seed(reseed)
		}
	}
}

// FuzzNew compares New(seed) with math/rand's source after draws%2048
// plain draws (the feed index wraps at draws 335, 942 and 1,549), then
// through a mix of operations: each pair of op bytes selects a rand.Rand
// method and its argument, or (op%8 == 7) reseeds both.
func FuzzNew(f *testing.F) {
	f.Add(int64(42), uint16(8), []byte{0, 1, 1, 2, 2, 3, 3, 200, 4, 5, 5, 6, 6, 31, 7, 9, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, ops []byte) {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for n := 1; n <= int(draws%2048); n++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d: New gave %#x, math/rand %#x", seed, n, g, w)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			if op%8 == 7 {
				seed = Derive(seed, int64(arg))
				got.Seed(seed)
				want.Seed(seed)
				continue
			}
			if g, w := apply(got, op, arg), apply(want, op, arg); g != w {
				t.Fatalf("op %d (%d, %d): New gave %#x, math/rand %#x", i/2, op%8, arg, g, w)
			}
		}
	})
}

var sinkInt63 int64

// BenchmarkNew times a stream's creation plus a number of draws: most
// streams in the module stop within 8 draws, and draws=300 crosses the
// register build at draw 274.
func BenchmarkNew(b *testing.B) {
	for _, draws := range []int{0, 8, 300} {
		b.Run(fmt.Sprintf("draws=%d", draws), func(b *testing.B) {
			b.ReportAllocs()
			var sum int64
			for i := 0; i < b.N; i++ {
				r := New(int64(i))
				for j := 0; j < draws; j++ {
					sum += r.Int63()
				}
			}
			sinkInt63 = sum
		})
	}
}
