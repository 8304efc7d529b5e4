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
	if st := c.State(); st["a"] != 5 || st["b"] != 1 || len(st) != 2 {
		t.Errorf("counts = %v", st)
	}
	labels := c.Labels()
	if len(labels) != 2 || labels[0] != "a" {
		t.Errorf("labels = %v", labels)
	}
	// A deleted label is gone from every view, and counts from zero if it
	// comes back.
	c.Delete("a")
	c.Delete("never-seen")
	if _, ok := c.State()["a"]; ok || len(c.Labels()) != 1 || c.State()["b"] != 1 {
		t.Errorf("after Delete(a): state %v, labels %v", c.State(), c.Labels())
	}
	c.Inc("a", 4)
	if n := c.State()["a"]; n != 4 {
		t.Errorf("re-added label counts %d, want 4", n)
	}
}

// TestCountsKeepLentLabels checks a count list's order after each kind
// of change, that a label slice lent by Clone is never written again,
// and that Plus sums without writing either list.
func TestCountsKeepLentLabels(t *testing.T) {
	c := NewCounts()
	want := map[string]int64{}
	check := func(step string, c Counts, want map[string]int64) {
		t.Helper()
		if !slices.Equal(c.Labels(), slices.Sorted(maps.Keys(want))) || !maps.Equal(maps.Collect(c.All()), want) || c.Len() != len(want) {
			t.Fatalf("%s: %v, want %v", step, c, want)
		}
		for l, n := range want {
			if c.Get(l) != n {
				t.Fatalf("%s: Get(%q) = %d, want %d", step, l, c.Get(l), n)
			}
		}
	}
	if (Counts{}).Labels() != nil || c.Labels() == nil || c.Get("a") != 0 {
		t.Fatal("the zero Counts must be nil and NewCounts empty")
	}
	add := func(l string, n int64) { c.Add(l, n); want[l] += n }
	add("b", 1)
	add("d", 2)
	add("f", 3) // three labels in a slice of capacity four
	check("add", c, want)
	lent, keptWant := c.Clone(), maps.Clone(want)
	add("d", 5) // an existing label keeps the labels
	if &c.Labels()[0] != &lent.Labels()[0] {
		t.Error("counting an existing label rebuilt the labels")
	}
	add("a", 1) // sorts first: inserted in place, it would shift the lent labels
	add("g", 1)
	check("insert", c, want)
	check("lent", lent, keptWant) // its labels and counts unwritten

	sum := c.Plus(lent)
	for l, n := range keptWant {
		want[l] += n
	}
	check("plus", sum, want)
	check("lent after plus", lent, keptWant)
	if (Counts{}).Plus(Counts{}).Labels() == nil {
		t.Error("a sum of nil lists is nil")
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
	if got := c.State()["x"]; got != 8000 {
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
