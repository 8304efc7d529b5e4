package sim

import (
	"math"
	"testing"

	"repro/internal/carbon"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// poissonOneDraw is poisson as one Knuth draw at any rate: exact while
// exp(-λ) is representable, saturating near λ ≈ 745 past that.
func poissonOneDraw(rng *rng.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

// TestPoissonSmallRatesKeepTheirStream: up to the chunk size poisson is
// one Knuth draw, so every seeded run at such a rate — every config the
// repo ships — draws exactly what it drew before chunking, and leaves the
// stream at the same position.
func TestPoissonSmallRatesKeepTheirStream(t *testing.T) {
	for _, lambda := range []float64{-1, 0, 0.5, 4, 6, 120, 499.5, poissonChunk} {
		a, b := rng.New(rng.NewSource(11)), rng.New(rng.NewSource(11))
		for k := 0; k < 2000; k++ {
			if got, want := poisson(a, lambda), poissonOneDraw(b, lambda); got != want {
				t.Fatalf("λ=%g draw %d: %d, one Knuth draw gives %d", lambda, k, got, want)
			}
		}
		if a.Float64() != b.Float64() {
			t.Fatalf("λ=%g: streams at different positions after 2000 draws", lambda)
		}
	}
}

// TestPoissonMeanAtLargeRates: the seeded mean of N draws lies within four
// standard errors, 4·√(λ/N), of λ — also past the λ ≈ 745 where a single
// Knuth draw saturates (its mean at λ = 1000 is about 745).
func TestPoissonMeanAtLargeRates(t *testing.T) {
	const n = 10000
	mean := func(draw func(*rng.Rand, float64) int, lambda float64) float64 {
		r := rng.New(rng.NewSource(int64(lambda) + 3))
		var sum float64
		for k := 0; k < n; k++ {
			sum += float64(draw(r, lambda))
		}
		return sum / n
	}
	for _, lambda := range []float64{6, 120, 1000, 5000} {
		if got, tol := mean(poisson, lambda), 4*math.Sqrt(lambda/n); math.Abs(got-lambda) > tol {
			t.Errorf("λ=%g: mean of %d draws %.2f, want within %.2f", lambda, n, got, tol)
		}
	}
	if got := mean(poissonOneDraw, 1000); got > 800 {
		t.Errorf("one Knuth draw at λ=1000 averages %.1f; the saturation this test guards against is gone", got)
	}
}

// TestValidateRejectsNonFiniteArrivalRate: an infinite or NaN rate has no
// Poisson draw.
func TestValidateRejectsNonFiniteArrivalRate(t *testing.T) {
	for _, rate := range []float64{-1, math.Inf(1), math.NaN()} {
		cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
		cfg.ArrivalsPerHour = rate
		if err := cfg.Validate(); err == nil {
			t.Errorf("arrival rate %g accepted", rate)
		}
	}
}

// TestValidateRejectsUnroutableTraffic: a traffic config whose rates have
// no Poisson draw (NaN or infinite RPS, or a peak hourly mean past 2^53,
// with or without the flash burst's multiplier) ran and served zero requests with no error. The
// engine's Validate must refuse it and still take an ordinary one.
func TestValidateRejectsUnroutableTraffic(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		tcfg traffic.Config
		ok   bool
	}{
		{traffic.Config{RPS: nan}, false},
		{traffic.Config{RPS: inf}, false},
		{traffic.Config{RPS: 1e16}, false},
		{traffic.Config{Scenario: traffic.FlashCrowd, RPS: 1e12}, false}, // past 2^53 only with the burst
		{traffic.Config{Scenario: traffic.FlashCrowd, RPS: 700}, true},
	} {
		cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
		cfg.Traffic = &tc.tcfg
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("traffic %+v: err = %v, want ok=%t", tc.tcfg, err, tc.ok)
		}
	}
}
