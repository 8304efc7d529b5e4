package carbon

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmissionFactorOrdering(t *testing.T) {
	// Fossil sources must dominate low-carbon sources; coal is the worst.
	lows := []Source{Solar, Wind, Hydro, Nuclear}
	for _, lo := range lows {
		for _, hi := range []Source{Gas, Oil, Coal} {
			if lo.EmissionFactor() >= hi.EmissionFactor() {
				t.Errorf("%v factor %.0f >= %v factor %.0f", lo, lo.EmissionFactor(), hi, hi.EmissionFactor())
			}
		}
	}
	if Coal.EmissionFactor() <= Gas.EmissionFactor() {
		t.Error("coal must be dirtier than gas")
	}
}

func TestRenewableClassification(t *testing.T) {
	if !Solar.Renewable() || !Wind.Renewable() {
		t.Error("solar/wind must be renewable")
	}
	if Hydro.Renewable() || Nuclear.Renewable() {
		t.Error("hydro/nuclear are firm, not VRE, in this model")
	}
}

func TestMixIntensityPureSources(t *testing.T) {
	for s := Source(0); s < numSources; s++ {
		var m Mix
		m[s] = 2.5
		got := m.Intensity()
		if math.Abs(got-s.EmissionFactor()) > 1e-9 {
			t.Errorf("pure %v intensity = %v, want %v", s, got, s.EmissionFactor())
		}
	}
}

func TestMixIntensityZero(t *testing.T) {
	var m Mix
	if got := m.Intensity(); got != 0 {
		t.Errorf("zero mix intensity = %v, want 0", got)
	}
	if got := m.Shares(); got != (Mix{}) {
		t.Errorf("zero mix shares = %v, want zeros", got)
	}
}

func TestMixIntensityWeightedAverage(t *testing.T) {
	var m Mix
	m[Coal] = 1
	m[Wind] = 1
	want := (Coal.EmissionFactor() + Wind.EmissionFactor()) / 2
	if got := m.Intensity(); math.Abs(got-want) > 1e-9 {
		t.Errorf("50/50 coal/wind = %v, want %v", got, want)
	}
}

func TestMixIntensityBounds(t *testing.T) {
	// Property: intensity of any non-negative mix lies within
	// [min factor, max factor].
	f := func(raw [8]float64) bool {
		var m Mix
		for i, v := range raw {
			m[i] = math.Abs(math.Mod(v, 100))
			if math.IsNaN(m[i]) || math.IsInf(m[i], 0) {
				m[i] = 1
			}
		}
		if m.Total() == 0 {
			return true
		}
		ci := m.Intensity()
		return ci >= Wind.EmissionFactor()-1e-9 && ci <= Coal.EmissionFactor()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixSharesSumToOne(t *testing.T) {
	var m Mix
	m[Gas], m[Solar], m[Hydro] = 3, 1, 2
	sh := m.Shares()
	var total float64
	for _, v := range sh {
		total += v
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum = %v, want 1", total)
	}
	if math.Abs(sh[Gas]-0.5) > 1e-12 {
		t.Errorf("gas share = %v, want 0.5", sh[Gas])
	}
}
