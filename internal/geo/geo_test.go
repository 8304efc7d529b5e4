package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	miami        = Point{Lat: 25.7617, Lon: -80.1918}
	orlando      = Point{Lat: 28.5384, Lon: -81.3789}
	tampa        = Point{Lat: 27.9506, Lon: -82.4572}
	jacksonville = Point{Lat: 30.3322, Lon: -81.6557}
	tallahassee  = Point{Lat: 30.4383, Lon: -84.2807}
	bern         = Point{Lat: 46.9480, Lon: 7.4474}
	munich       = Point{Lat: 48.1351, Lon: 11.5820}
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		name   string
		a, b   Point
		wantKm float64
		tolKm  float64
	}{
		{"miami-orlando", miami, orlando, 330, 15},
		{"miami-tampa", miami, tampa, 330, 25},
		{"bern-munich", bern, munich, 335, 20},
		{"same-point", miami, miami, 0, 1e-9},
		{"equator-degree", Point{0, 0}, Point{0, 1}, 111.19, 0.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.a.DistanceKm(c.b)
			if math.Abs(got-c.wantKm) > c.tolKm {
				t.Errorf("DistanceKm(%v,%v) = %.2f, want %.2f±%.2f", c.a, c.b, got, c.wantKm, c.tolKm)
			}
		})
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(aLat, aLon, bLat, bLon float64) bool {
		a := Point{Lat: clampLat(aLat), Lon: clampLon(aLon)}
		b := Point{Lat: clampLat(bLat), Lon: clampLon(bLon)}
		d1, d2 := a.DistanceKm(b), b.DistanceKm(a)
		return math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := randPoint(rng)
		b := randPoint(rng)
		c := randPoint(rng)
		ab, bc, ac := a.DistanceKm(b), b.DistanceKm(c), a.DistanceKm(c)
		if ac > ab+bc+1e-6 {
			t.Fatalf("triangle inequality violated: d(%v,%v)=%.4f > %.4f+%.4f", a, c, ac, ab, bc)
		}
	}
}

func TestDistanceNonNegative(t *testing.T) {
	f := func(aLat, aLon, bLat, bLon float64) bool {
		a := Point{Lat: clampLat(aLat), Lon: clampLon(aLon)}
		b := Point{Lat: clampLat(bLat), Lon: clampLon(bLon)}
		return a.DistanceKm(b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointValid(t *testing.T) {
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{90, 180}, true},
		{Point{-90, -180}, true},
		{Point{91, 0}, false},
		{Point{0, 181}, false},
		{Point{-90.5, 0}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBBox(t *testing.T) {
	pts := []Point{miami, orlando, tampa, jacksonville, tallahassee}
	b := NewBBox(pts)
	for _, p := range pts {
		if !inBox(b, p) {
			t.Errorf("bbox should contain %v", p)
		}
	}
	if inBox(b, bern) {
		t.Errorf("bbox should not contain %v", bern)
	}
	w, h := b.SpanKm()
	// Florida region in the paper is annotated 807km x 712km.
	if w < 300 || w > 900 {
		t.Errorf("florida bbox width = %.1f km, expected mesoscale range", w)
	}
	if h < 300 || h > 900 {
		t.Errorf("florida bbox height = %.1f km, expected mesoscale range", h)
	}
}

func TestBBoxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBBox(nil) should panic")
		}
	}()
	NewBBox(nil)
}

func TestIndexNearest(t *testing.T) {
	names := []string{"miami", "orlando", "tampa", "jacksonville", "tallahassee"}
	pts := []Point{miami, orlando, tampa, jacksonville, tallahassee}
	idx := NewIndex(names, pts)

	name, _, d, ok := idx.Nearest(Point{Lat: 25.9, Lon: -80.3})
	if !ok || name != "miami" {
		t.Fatalf("Nearest near Miami = %q ok=%v, want miami", name, ok)
	}
	if d > 30 {
		t.Errorf("distance to Miami = %.1f km, want < 30", d)
	}

	name, _, _, _ = idx.Nearest(tallahassee)
	if name != "tallahassee" {
		t.Errorf("Nearest(exact point) = %q, want tallahassee", name)
	}
}

func TestIndexNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 200
	names := make([]string, n)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = randPoint(rng)
		names[i] = string(rune('a' + i%26))
	}
	idx := NewIndex(names, pts)
	for trial := 0; trial < 100; trial++ {
		q := randPoint(rng)
		_, got, gotD, _ := idx.Nearest(q)
		bestD := math.Inf(1)
		var best Point
		for _, p := range pts {
			if d := q.DistanceKm(p); d < bestD {
				bestD, best = d, p
			}
		}
		if math.Abs(gotD-bestD) > 1e-9 {
			t.Fatalf("Nearest(%v) = %v (%.3f km), brute force = %v (%.3f km)", q, got, gotD, best, bestD)
		}
	}
}

func TestIndexNearestEmpty(t *testing.T) {
	idx := NewIndex(nil, nil)
	if _, _, _, ok := idx.Nearest(miami); ok {
		t.Error("Nearest on empty index should report ok=false")
	}
}

func TestIndexWithinRadius(t *testing.T) {
	names := []string{"miami", "orlando", "tampa", "jacksonville", "tallahassee", "bern"}
	pts := []Point{miami, orlando, tampa, jacksonville, tallahassee, bern}
	idx := NewIndex(names, pts)

	hits := idx.WithinRadius(miami, 400)
	if len(hits) < 3 {
		t.Fatalf("WithinRadius(miami, 400km) = %d hits, want >= 3", len(hits))
	}
	if names[hits[0]] != "miami" {
		t.Errorf("first hit = %q, want miami (distance 0)", names[hits[0]])
	}
	for i := 1; i < len(hits); i++ {
		d0 := miami.DistanceKm(pts[hits[i-1]])
		d1 := miami.DistanceKm(pts[hits[i]])
		if d0 > d1 {
			t.Errorf("hits not sorted by distance: %.1f before %.1f", d0, d1)
		}
	}
	for _, h := range hits {
		if names[h] == "bern" {
			t.Error("bern should not be within 400km of miami")
		}
	}
}

func TestIndexMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewIndex with mismatched lengths should panic")
		}
	}()
	NewIndex([]string{"a"}, nil)
}

func clampLat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 90)
}

func clampLon(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 180)
}

func randPoint(rng *rand.Rand) Point {
	return Point{Lat: rng.Float64()*160 - 80, Lon: rng.Float64()*360 - 180}
}

// inBox reports whether p lies within b (inclusive).
func inBox(b BBox, p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat && p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}
