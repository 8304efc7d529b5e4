// Package rng provides the deterministic random-number source the
// simulator and traffic generator draw from. Unlike math/rand's default
// source, its entire state is one exportable 64-bit word, so a
// checkpoint can capture the stream position mid-run and a restore can
// resume it bit-identically (internal/checkpoint's core requirement).
//
// The generator is splitmix64 (Steele, Lea & Flood, "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014): a Weyl sequence with a
// strong output mixer. It is not cryptographic; it is fast, has a full
// 2^64 period, and — the property everything here depends on — its
// state after k draws is a pure function of (seed, k).
//
// The package also provides MixSeed2, the keyed seed-derivation hash used
// to split one base seed into decorrelated per-dimension streams
// (per-hour traffic slices, per-zone traces). It runs every input word through
// the mixer chain, so derived seeds differ in all bits even when two
// base seeds or two dimension indices are close — deriving streams by
// XORing a base seed with a hash of the dimension alone (the bug fixed
// in traffic.hourSeed) keeps the XOR-distance between two bases' streams
// constant; MixSeed2 does not.
package rng

import "math/rand"

// gamma is the splitmix64 Weyl increment (the golden ratio scaled to
// 64 bits, forced odd).
const gamma = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 output mixer (variant 13 of Stafford's
// MurmurHash3 finalizer study).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a splitmix64 stream implementing rand.Source64. Its state is
// a single uint64: State captures the stream position and Restore
// resumes it exactly. A Source is not safe for concurrent use, matching
// rand.Source.
type Source struct {
	state uint64
}

// Compile-time interface check: rand.New(src) must accept a *Source.
var _ rand.Source64 = (*Source)(nil)

// NewSource returns a source seeded like Seed(seed).
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the stream. The raw seed is run through the mixer once so
// adjacent seeds (42, 43, ...) start in unrelated states.
func (s *Source) Seed(seed int64) {
	s.state = mix64(uint64(seed) + gamma)
}

// Uint64 advances the stream and returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += gamma
	return mix64(s.state)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// State returns the stream position. Restoring it with Restore resumes
// the stream exactly where it left off.
func (s *Source) State() uint64 { return s.state }

// Restore repositions the stream to a captured State.
func (s *Source) Restore(state uint64) { s.state = state }

// MixSeed2 derives a seed from two input words by absorbing each one
// through the splitmix64 mixer chain. Unlike base^hash(dim) derivations,
// every input word diffuses into all output bits, so streams derived from
// nearby bases or nearby dimensions are pairwise decorrelated. It
// allocates nothing, so hot paths call it.
func MixSeed2(a, b int64) int64 {
	acc := uint64(gamma)
	acc = mix64(acc + gamma + uint64(a))
	acc = mix64(acc + gamma + uint64(b))
	return int64(acc)
}
