// Package metrics provides the light-weight aggregation primitives the
// simulator, testbed, and orchestrator use to accumulate experiment
// results: streaming summaries, grouped summaries, and labelled counters.
package metrics

import (
	"maps"
	"math"
	"slices"
	"sync"
)

// Summary accumulates streaming scalar statistics.
type Summary struct {
	n          int
	sum        float64
	min, max   float64
	sumSquares float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		s.min = math.Min(s.min, v)
		s.max = math.Max(s.max, v)
	}
	s.n++
	s.sum += v
	s.sumSquares += v * v
}

// N returns the observation count.
func (s *Summary) N() int { return s.n }

// Sum returns the total.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the mean, or NaN when empty.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.n)
}

// Merge folds another summary's observations into s, as if every Add on
// o had been an Add on s. Merging is order-independent up to float
// addition: shard-result merges always fold in a fixed (shard-index)
// order so the combined bytes are reproducible.
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	s.min = math.Min(s.min, o.min)
	s.max = math.Max(s.max, o.max)
	s.n += o.n
	s.sum += o.sum
	s.sumSquares += o.sumSquares
}

// Grouped maintains one Summary per string key. It is safe for concurrent
// use.
type Grouped struct {
	mu     sync.Mutex
	groups map[string]*Summary
}

// NewGrouped creates an empty grouped summary.
func NewGrouped() *Grouped { return &Grouped{groups: make(map[string]*Summary)} }

// Add records an observation under key.
func (g *Grouped) Add(key string, v float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.groups[key]
	if s == nil {
		s = &Summary{}
		g.groups[key] = s
	}
	s.Add(v)
}

// Get returns the summary for key (nil when absent).
func (g *Grouped) Get(key string) *Summary {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.groups[key]
}

// Counter is a labelled monotonically increasing counter set, safe for
// concurrent use.
type Counter struct {
	mu     sync.Mutex
	counts map[string]int64
}

// NewCounter creates an empty counter set.
func NewCounter() *Counter { return &Counter{counts: make(map[string]int64)} }

// Inc increments label by delta (which must be >= 0).
func (c *Counter) Inc(label string, delta int64) {
	if delta < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[label] += delta
}

// Delete drops a label and its count: the owner's way to retire a label
// whose subject is gone, so a long-lived counter set tracks the labels in
// use rather than every label ever seen. Deleting an absent label is a
// no-op.
func (c *Counter) Delete(label string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.counts, label)
}

// Labels returns all labels sorted.
func (c *Counter) Labels() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	labels := slices.AppendSeq(make([]string, 0, len(c.counts)), maps.Keys(c.counts))
	slices.Sort(labels)
	return labels
}

// SummaryState is the serializable form of a Summary, used by
// checkpoint/restore. Restoring it reproduces the accumulator
// bit-identically.
type SummaryState struct {
	N          int     `json:"n"`
	Sum        float64 `json:"sum"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
	SumSquares float64 `json:"sum_squares"`
}

// State exports the summary's accumulator.
func (s *Summary) State() SummaryState {
	return SummaryState{N: s.n, Sum: s.sum, Min: s.min, Max: s.max, SumSquares: s.sumSquares}
}

// SummaryFromState rebuilds a summary from an exported state.
func SummaryFromState(st SummaryState) Summary {
	return Summary{n: st.N, sum: st.Sum, min: st.Min, max: st.Max, sumSquares: st.SumSquares}
}

// State exports the counter's labelled counts.
func (c *Counter) State() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.counts)
}

// CounterFromState rebuilds a counter from an exported state.
func CounterFromState(st map[string]int64) *Counter {
	c := NewCounter()
	for k, v := range st {
		c.counts[k] = v
	}
	return c
}

// State exports every group's summary state.
func (g *Grouped) State() map[string]SummaryState {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]SummaryState, len(g.groups))
	for k, s := range g.groups {
		out[k] = s.State()
	}
	return out
}

// GroupedFromState rebuilds a grouped summary from an exported state.
func GroupedFromState(st map[string]SummaryState) *Grouped {
	g := NewGrouped()
	for k, s := range st {
		sum := SummaryFromState(s)
		g.groups[k] = &sum
	}
	return g
}
