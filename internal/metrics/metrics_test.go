package metrics

import (
	"maps"
	"math"
	"slices"
	"sync"
	"testing"
)

func TestSummaryBasic(t *testing.T) {
	var s Summary
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.N() != 4 || s.Sum() != 10 {
		t.Errorf("n=%d sum=%v", s.N(), s.Sum())
	}
	if s.Mean() != 2.5 || s.min != 1 || s.max != 4 {
		t.Errorf("mean/min/max = %v/%v/%v", s.Mean(), s.min, s.max)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Mean()) {
		t.Error("empty summary's mean should be NaN")
	}
}

func TestSummaryNegativeValues(t *testing.T) {
	var s Summary
	s.Add(-5)
	s.Add(5)
	if s.min != -5 || s.max != 5 || s.Mean() != 0 {
		t.Errorf("stats = %v/%v/%v", s.min, s.max, s.Mean())
	}
}

func TestGrouped(t *testing.T) {
	g := NewGrouped()
	g.Add("us", 1)
	g.Add("us", 3)
	g.Add("eu", 10)
	if got := g.Get("us").Mean(); got != 2 {
		t.Errorf("us mean = %v", got)
	}
	if got := g.Get("eu").N(); got != 1 {
		t.Errorf("eu n = %v", got)
	}
	if g.Get("asia") != nil {
		t.Error("missing key should be nil")
	}
}

func TestGroupedConcurrent(t *testing.T) {
	g := NewGrouped()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				g.Add("k", 1)
			}
		}()
	}
	wg.Wait()
	if got := g.Get("k").N(); got != 4000 {
		t.Errorf("concurrent adds = %d, want 4000", got)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("a", 2)
	c.Inc("a", 3)
	c.Inc("b", 1)
	c.Inc("a", -5) // ignored
	if c.Get("a") != 5 || c.Get("b") != 1 || c.Get("zzz") != 0 {
		t.Errorf("counts = %d %d %d", c.Get("a"), c.Get("b"), c.Get("zzz"))
	}
	labels := c.Labels()
	if len(labels) != 2 || labels[0] != "a" {
		t.Errorf("labels = %v", labels)
	}
	// A deleted label is gone from every view, and counts from zero if it
	// comes back.
	c.Delete("a")
	c.Delete("never-seen")
	if _, ok := c.State()["a"]; ok || c.Get("a") != 0 || len(c.Labels()) != 1 || c.Get("b") != 1 {
		t.Errorf("after Delete(a): state %v, labels %v", c.State(), c.Labels())
	}
	c.Inc("a", 4)
	if c.Get("a") != 4 {
		t.Errorf("re-added label counts %d, want 4", c.Get("a"))
	}
}

// TestCounterSortedState checks the cached label order after every kind
// of label change, and that a lent label slice is never written again.
func TestCounterSortedState(t *testing.T) {
	c := NewCounter()
	check := func(step string) []string {
		t.Helper()
		st, labels := c.SortedState()
		want := slices.Sorted(maps.Keys(st))
		if len(want) == 0 {
			want = nil
		}
		if !slices.Equal(labels, want) || !slices.Equal(c.Labels(), want) {
			t.Fatalf("%s: SortedState labels %v, Labels %v, want %v", step, labels, c.Labels(), want)
		}
		return labels
	}
	check("empty")
	c.Inc("b", 1)
	c.Inc("a", 1)
	lent := check("inc")
	kept := slices.Clone(lent)
	c.Inc("a", 1) // an existing label keeps the cache
	if again := check("inc existing"); &again[0] != &lent[0] {
		t.Error("incrementing an existing label rebuilt the labels")
	}
	c.Delete("a")
	check("delete")
	c.Inc("0", 1)
	check("inc new label")
	if !slices.Equal(lent, kept) {
		t.Errorf("lent labels rewritten to %v, were %v", lent, kept)
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc("x", 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Get("x"); got != 8000 {
		t.Errorf("concurrent counter = %d", got)
	}
}

func TestSummaryMerge(t *testing.T) {
	// Merging two summaries equals one summary over all observations.
	var a, b, all Summary
	for _, v := range []float64{3, -1, 7} {
		a.Add(v)
		all.Add(v)
	}
	for _, v := range []float64{2, 12} {
		b.Add(v)
		all.Add(v)
	}
	a.Merge(&b)
	if a != all {
		t.Errorf("merged = %+v, want %+v", a, all)
	}
	// Merging an empty summary is a no-op; merging into an empty one
	// copies the source.
	var empty Summary
	a.Merge(&empty)
	if a != all {
		t.Errorf("merge of empty changed state: %+v", a)
	}
	var dst Summary
	dst.Merge(&all)
	if dst != all {
		t.Errorf("merge into empty = %+v, want %+v", dst, all)
	}
}
