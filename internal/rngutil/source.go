package rngutil

import (
	"math"
	"math/rand"
)

// math/rand's source is an additive lagged Fibonacci register of rngLen
// words. Seeding sets entry i to cooked[i] XOR (x₁<<40 ^ x₂<<20 ^ x₃), where
// x₁, x₂, x₃ are Lehmer steps 21+3i, 22+3i and 23+3i of the normalized seed;
// step k is lehmerA^k · seed mod lehmerM. Draw n (from 1) decrements the tap
// and feed indices (from 0 and rngFeed, modulo rngLen), adds the two entries,
// stores the sum at the feed index and returns it.
const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap
	lehmerA  = 48271
	lehmerM  = 1<<31 - 1
	zeroSeed = 89482311 // stands in for a seed ≡ 0 (mod lehmerM)
)

var (
	// lehmerPow[i][j] is lehmerA^(21+3i+j) mod lehmerM: it takes a
	// normalized seed to the Lehmer step that register entry i reads.
	lehmerPow [rngLen][3]uint32
	// cooked is math/rand's rngCooked table, recovered by initCooked.
	cooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 0; k < 20; k++ {
		p = p * lehmerA % lehmerM
	}
	for i := range lehmerPow {
		for j := range lehmerPow[i] {
			p = p * lehmerA % lehmerM
			lehmerPow[i][j] = uint32(p)
		}
	}
	initCooked()
}

// initCooked recovers cooked from the first rngLen draws of
// rand.NewSource(1), so no copy of math/rand's table is kept here. Draws
// 274–607 add an entry still as seeded (feed index 334−n, or 941−n once the
// feed has wrapped) to the sum that draw n−273 stored at the tap index; draws
// 1–273 add two entries still as seeded. Removing seed 1's Lehmer part from
// each entry leaves its cooked constant.
func initCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64 // out[n] is draw n
	for n := 1; n <= rngLen; n++ {
		out[n] = int64(src.Uint64())
	}
	var v [rngLen]int64 // seed 1's register before any draw
	for n := rngTap + 1; n <= rngLen; n++ {
		v[(rngFeed-n+rngLen)%rngLen] = out[n] - out[n-rngTap]
	}
	for n := 1; n <= rngTap; n++ {
		v[rngFeed-n] = out[n] - v[rngLen-n]
	}
	for i := range cooked {
		cooked[i] = v[i] ^ lehmer(1, i)
	}
}

// lehmer returns the Lehmer part of register entry i for normalized seed s.
func lehmer(s uint64, i int) int64 {
	p := &lehmerPow[i]
	x1 := uint64(p[0]) * s % lehmerM
	x2 := uint64(p[1]) * s % lehmerM
	x3 := uint64(p[2]) * s % lehmerM
	return int64(x1<<40 ^ x2<<20 ^ x3)
}

// source yields exactly rand.NewSource(seed)'s stream, doing seeding work
// only for the draws taken. Its tap and feed indices move as math/rand's do.
// Draws 1–rngTap read entries that no earlier draw has written (the feed
// index is still at least rngFeed−rngTap), so they are computed from the
// seed alone; the next draw builds the register and replays their writes.
type source struct {
	seed      uint64 // normalized, in [1, lehmerM)
	tap, feed int
	vec       *[rngLen]int64 // nil until draw rngTap+1
}

// Seed resets the source to the start of seed's stream, normalizing the seed
// as math/rand does.
func (s *source) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	*s = source{seed: uint64(seed), feed: rngFeed}
}

func (s *source) Int63() int64 {
	return int64(s.Uint64() & math.MaxInt64)
}

// Uint64 makes source a rand.Source64, which (*rand.Rand).Uint64 reads in
// one draw as it does math/rand's source.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.vec == nil {
		if s.feed >= rngFeed-rngTap {
			return uint64(s.entry(s.feed) + s.entry(s.tap))
		}
		s.build()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// entry returns register entry i as seeding sets it.
func (s *source) entry(i int) int64 {
	return cooked[i] ^ lehmer(s.seed, i)
}

// build fills the register as seeding would, then stores the sums that
// draws 1–rngTap stored at their feed indices.
func (s *source) build() {
	vec := new([rngLen]int64)
	for i := range vec {
		vec[i] = s.entry(i)
	}
	for n := 1; n <= rngTap; n++ {
		vec[rngFeed-n] += vec[rngLen-n]
	}
	s.vec = vec
}
