package cluster

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/energy"
	"repro/internal/geo"
)

func newTestServer(id string) *Server {
	return NewServer(id, "dc1", energy.A2, NewResources(4000, 16384, 16384, 1000))
}

func TestResourcesArithmetic(t *testing.T) {
	a := NewResources(100, 200, 300, 400)
	b := NewResources(1, 2, 3, 4)
	sum := a.Add(b)
	if sum[ResCPUMilli] != 101 || sum[ResNetMbps] != 404 {
		t.Errorf("Add = %v", sum)
	}
	diff := a.Sub(b)
	if diff[ResMemMB] != 198 {
		t.Errorf("Sub = %v", diff)
	}
	// Value semantics: a unchanged.
	if a[ResCPUMilli] != 100 {
		t.Error("Add mutated receiver")
	}
}

func TestResourcesFits(t *testing.T) {
	c := NewResources(1000, 1000, 1000, 1000)
	if !NewResources(1000, 999, 0, 0).Fits(c) {
		t.Error("exact fit rejected")
	}
	if NewResources(1001, 0, 0, 0).Fits(c) {
		t.Error("overflow accepted")
	}
}

func TestResourcesDominant(t *testing.T) {
	c := NewResources(1000, 2000, 0, 100)
	u := NewResources(500, 1500, 0, 10)
	if got := u.Dominant(c); got != 0.75 {
		t.Errorf("Dominant = %v, want 0.75 (mem)", got)
	}
	// Zero-capacity dimensions are ignored even when used is non-zero.
	u2 := NewResources(0, 0, 50, 0)
	if got := u2.Dominant(c); got != 0 {
		t.Errorf("Dominant with zero-cap dim = %v, want 0", got)
	}
}

func TestResourcesAddSubInverse(t *testing.T) {
	clamp := func(v float64) float64 {
		if v != v || v > 1e9 || v < -1e9 {
			return 1
		}
		return v
	}
	f := func(a, b [4]float64) bool {
		var ra, rb Resources
		for k := range ra {
			ra[k], rb[k] = clamp(a[k]), clamp(b[k])
		}
		back := ra.Add(rb).Sub(rb)
		for k := range back {
			if diff := back[k] - ra[k]; diff > 1e-3 || diff < -1e-3 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDataCenterAggregation(t *testing.T) {
	dc := NewDataCenter("dc1", "Miami", geo.Point{Lat: 25.76, Lon: -80.19}, "US-FL-MIA", "Miami")
	s1 := newTestServer("s1")
	s2 := newTestServer("s2")
	if err := dc.AddServer(s1); err != nil {
		t.Fatal(err)
	}
	if err := dc.AddServer(s2); err != nil {
		t.Fatal(err)
	}
	if err := dc.AddServer(s1); err == nil {
		t.Error("duplicate server accepted")
	}
	wrong := NewServer("s3", "other-dc", energy.A2, Resources{})
	if err := dc.AddServer(wrong); err == nil {
		t.Error("server with mismatched DC accepted")
	}
	if got := dc.Servers(); len(got) != 2 || got[0] != s1 || got[1] != s2 {
		t.Errorf("Servers = %v, want s1 then s2", got)
	}
}

func TestClusterLookups(t *testing.T) {
	dc1 := NewDataCenter("dc1", "A", geo.Point{Lat: 1, Lon: 1}, "z1", "c1")
	dc2 := NewDataCenter("dc2", "B", geo.Point{Lat: 2, Lon: 2}, "z2", "c2")
	s1 := NewServer("s1", "dc1", energy.A2, Resources{})
	s2 := NewServer("s2", "dc2", energy.OrinNano, Resources{})
	_ = dc1.AddServer(s1)
	_ = dc2.AddServer(s2)

	c, err := NewCluster([]*DataCenter{dc1, dc2})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.DataCenters()); n != 2 {
		t.Errorf("DataCenters = %d", n)
	}
	srv, dc, err := c.FindServer("s2")
	if err != nil || srv != s2 || dc != dc2 {
		t.Errorf("FindServer = %v %v %v", srv, dc, err)
	}
	if _, _, err := c.FindServer("nope"); err == nil {
		t.Error("unknown server lookup should error")
	}
	if _, err := NewCluster([]*DataCenter{dc1, dc1}); err == nil {
		t.Error("duplicate DC accepted")
	}
}

func TestResourceKindStrings(t *testing.T) {
	if ResCPUMilli.String() != "cpu_milli" || ResNetMbps.String() != "net_mbps" {
		t.Error("resource kind names wrong")
	}
	if !strings.Contains(ResourceKind(9).String(), "9") {
		t.Error("out-of-range kind should include number")
	}
	if len(ResourceKinds()) != int(numResources) {
		t.Error("ResourceKinds incomplete")
	}
}
