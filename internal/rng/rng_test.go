package rng

import (
	"math/rand"
	"testing"
)

func TestSourceDeterministic(t *testing.T) {
	a, b := NewSource(42), NewSource(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d diverged: %x vs %x", i, av, bv)
		}
	}
	c := NewSource(43)
	same := 0
	a = NewSource(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 42 and 43 collided on %d of 1000 draws", same)
	}
}

func TestStateCaptureResumesExactly(t *testing.T) {
	ref := NewSource(7)
	var want []uint64
	for i := 0; i < 500; i++ {
		want = append(want, ref.Uint64())
	}

	src := NewSource(7)
	for i := 0; i < 123; i++ {
		src.Uint64()
	}
	snap := src.State()
	// Drain the original past the capture point, then restore.
	for i := 0; i < 50; i++ {
		src.Uint64()
	}
	src.Restore(snap)
	for i := 123; i < 500; i++ {
		if got := src.Uint64(); got != want[i] {
			t.Fatalf("restored draw %d = %x, want %x", i, got, want[i])
		}
	}

	var fresh Source
	fresh.Restore(snap)
	if got := fresh.Uint64(); got != want[123] {
		t.Fatalf("fresh source restored: draw = %x, want %x", got, want[123])
	}
}

func TestStateCaptureSurvivesRandRand(t *testing.T) {
	// The simulator wraps the source in *rand.Rand; Float64/Intn/
	// NormFloat64 must not buffer state outside the source, or a
	// mid-stream capture would diverge.
	src := NewSource(99)
	r := rand.New(src)
	for i := 0; i < 77; i++ {
		r.Float64()
		r.Intn(13)
		r.NormFloat64()
	}
	snap := src.State()
	var want []float64
	for i := 0; i < 200; i++ {
		want = append(want, r.Float64(), r.NormFloat64())
	}

	src2 := NewSource(0)
	src2.Restore(snap)
	r2 := rand.New(src2)
	for i := 0; i < 200; i++ {
		if got := r2.Float64(); got != want[2*i] {
			t.Fatalf("restored Float64 %d = %v, want %v", i, got, want[2*i])
		}
		if got := r2.NormFloat64(); got != want[2*i+1] {
			t.Fatalf("restored NormFloat64 %d = %v, want %v", i, got, want[2*i+1])
		}
	}
}

func TestMixDecorrelatesNearbyInputs(t *testing.T) {
	// Streams derived from adjacent bases must not keep a constant
	// XOR-distance across the derived dimension (the traffic.hourSeed
	// bug this package exists to prevent).
	const hours = 256
	xors := map[int64]bool{}
	for h := int64(0); h < hours; h++ {
		xors[MixSeed2(1, h)^MixSeed2(2, h)] = true
	}
	if len(xors) < hours/2 {
		t.Fatalf("MixSeed2(1,h)^MixSeed2(2,h) took only %d distinct values over %d hours", len(xors), hours)
	}

	// Distinct inputs map to distinct outputs in practice.
	seen := map[int64]bool{}
	for base := int64(0); base < 64; base++ {
		for h := int64(0); h < 64; h++ {
			v := MixSeed2(base, h)
			if seen[v] {
				t.Fatalf("MixSeed2 collision at base=%d hour=%d", base, h)
			}
			seen[v] = true
		}
	}
}

// TestMixSeedMatchesMix holds MixSeed2 to the mixer chain over any
// number of words (mixChain, the variadic form it unrolls) on negative
// input, whose words wrap to large uint64s.
func TestMixSeedMatchesMix(t *testing.T) {
	neg := int64(-5)
	if MixSeed2(neg, 12) != int64(mixChain(uint64(neg), 12)) {
		t.Fatal("MixSeed2 disagrees with the mixer chain on negative input")
	}
}

// mixChain absorbs each word through the splitmix64 mixer chain.
func mixChain(words ...uint64) uint64 {
	acc := uint64(gamma)
	for _, w := range words {
		acc = mix64(acc + gamma + w)
	}
	return acc
}
