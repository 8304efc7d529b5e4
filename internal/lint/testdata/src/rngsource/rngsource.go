// Package fixture exercises the rngsource analyzer: math/rand and
// crypto/rand imports are confined to the rng home package, and raw
// seed arithmetic in deterministic packages must go through
// rng.MixSeed2.
package fixture

import "math/rand" // want `rngsource: import of math/rand outside repro/internal/rng`

// draw uses the forbidden import; only the import line is flagged.
func draw(r *rand.Rand) float64 {
	return r.Float64()
}

// deriveXor is ad-hoc seed derivation: XOR correlates streams.
func deriveXor(seed int64, id int64) int64 {
	return seed ^ id // want `rngsource: raw seed arithmetic`
}

// deriveMul is the multiplicative variant.
func deriveMul(rootSeed int64) int64 {
	return rootSeed * 31 // want `rngsource: raw seed arithmetic`
}

// suppressedDerivation pins a legacy stream with a reasoned annotation.
func suppressedDerivation(seed int64) int64 {
	//detlint:rng golden traces from PR 3 pin this legacy derivation
	return seed + 0x9e3779b9
}

// plainArithmetic has no seed-named operand; never flagged.
func plainArithmetic(count int64, step int64) int64 {
	return count + step
}
