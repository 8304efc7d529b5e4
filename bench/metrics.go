package main

import (
	"sort"
	"time"
)

// Metric kinds. Host numbers are wall time and heap: noisy, reported as
// the median of their samples with quartiles. Simulated numbers and
// counts come out of the deterministic program: a fixed seed repeats
// them exactly, so any movement is a behaviour change.
const (
	kindHost      = "host"
	kindSimulated = "simulated"
	kindCount     = "count"
)

// value is one reported metric.
type value struct {
	Unit  string  `json:"unit"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
	// Q1, Q3 and Samples are set for host metrics with more than one
	// sample; Value is then their median.
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// metrics is an insertion-ordered name -> value set.
type metrics struct {
	names []string
	byKey map[string]value
}

func newMetrics() *metrics { return &metrics{byKey: map[string]value{}} }

func (m *metrics) put(name string, v value) {
	if _, dup := m.byKey[name]; !dup {
		m.names = append(m.names, name)
	}
	m.byKey[name] = v
}

// host records a host metric as the median of its samples.
func (m *metrics) host(name, unit string, samples ...float64) {
	v := value{Unit: unit, Kind: kindHost, Value: median(samples)}
	if len(samples) > 1 {
		v.Q1, v.Q3 = quantile(samples, 0.25), quantile(samples, 0.75)
		v.Samples = samples
	}
	m.put(name, v)
}

func (m *metrics) simulated(name, unit string, v float64) {
	m.put(name, value{Unit: unit, Kind: kindSimulated, Value: v})
}

func (m *metrics) count(name, unit string, v float64) {
	m.put(name, value{Unit: unit, Kind: kindCount, Value: v})
}

func (m *metrics) merge(src *metrics) {
	for _, n := range src.names {
		m.put(n, src.byKey[n])
	}
}

// quantile interpolates linearly between order statistics (0 for no
// samples).
func quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole * 100
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

// durations converts to float samples in the given unit.
func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}
