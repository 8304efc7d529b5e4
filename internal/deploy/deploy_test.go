package deploy

import (
	"strings"
	"testing"

	"repro/internal/carbon"
	"repro/internal/latency"
)

func fixtures(t *testing.T) (*carbon.Registry, *latency.CityRegistry) {
	t.Helper()
	zones, err := carbon.DefaultRegistry(42)
	if err != nil {
		t.Fatal(err)
	}
	cities, err := latency.DefaultCityRegistry()
	if err != nil {
		t.Fatal(err)
	}
	return zones, cities
}

func TestGenerateDefaults(t *testing.T) {
	zones, cities := fixtures(t)
	d, err := Generate(zones, cities)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Sites) == 0 {
		t.Fatal("no sites generated")
	}
	// After merging, at most one site per city.
	seen := map[string]bool{}
	for _, s := range d.Sites {
		if seen[s.City] {
			t.Errorf("duplicate site city %s after merge", s.City)
		}
		seen[s.City] = true
	}
	// All 496 raw sites must be accounted for in weights (zone and city
	// coverage is total in our registries).
	var total float64
	for _, s := range d.Sites {
		total += s.Weight
	}
	if total != 496 {
		t.Errorf("total weight = %v, want 496", total)
	}
	// Both continents present.
	if len(d.InRegion(carbon.RegionUS)) == 0 || len(d.InRegion(carbon.RegionEurope)) == 0 {
		t.Error("missing a continent")
	}
}

// siteByCity returns the site anchored at the city, or nil.
func siteByCity(d *Deployment, city string) *Site {
	for i := range d.Sites {
		if d.Sites[i].City == city {
			return &d.Sites[i]
		}
	}
	return nil
}

func TestGenerateDeterministic(t *testing.T) {
	zones, cities := fixtures(t)
	a, err := Generate(zones, cities)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(zones, cities)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sites) != len(b.Sites) {
		t.Fatalf("site counts differ: %d vs %d", len(a.Sites), len(b.Sites))
	}
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatalf("site %d differs: %+v vs %+v", i, a.Sites[i], b.Sites[i])
		}
	}
}

func TestSitesHaveValidMappings(t *testing.T) {
	zones, cities := fixtures(t)
	d, err := Generate(zones, cities)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Sites {
		z := zones.ByID(s.ZoneID)
		if z == nil {
			t.Errorf("site %s maps to unknown zone %s", s.ID, s.ZoneID)
			continue
		}
		if z.Region != s.Region {
			t.Errorf("site %s region %v != zone region %v", s.ID, s.Region, z.Region)
		}
		if _, ok := cities.ByName(s.City); !ok {
			t.Errorf("site %s maps to unknown city %s", s.ID, s.City)
		}
		if s.Weight < 1 {
			t.Errorf("site %s weight %v < 1", s.ID, s.Weight)
		}
		if s.PopulationM <= 0 {
			t.Errorf("site %s population %v", s.ID, s.PopulationM)
		}
	}
}

func TestPopulationWeighting(t *testing.T) {
	zones, cities := fixtures(t)
	d, err := Generate(zones, cities)
	if err != nil {
		t.Fatal(err)
	}
	// Big metros should carry more merged weight than tiny towns.
	ny := siteByCity(d, "New York")
	if ny == nil {
		t.Fatal("New York missing from a population-weighted deployment")
	}
	kingman := siteByCity(d, "Kingman")
	if kingman != nil && kingman.Weight > ny.Weight {
		t.Errorf("Kingman weight %v > New York weight %v", kingman.Weight, ny.Weight)
	}
	if ny.Weight < 5 {
		t.Errorf("New York weight %v suspiciously low", ny.Weight)
	}
}

func TestGenerateValidation(t *testing.T) {
	zones, cities := fixtures(t)
	if _, err := Generate(nil, cities); err == nil {
		t.Error("nil zone registry accepted")
	}
	if _, err := Generate(zones, nil); err == nil {
		t.Error("nil city registry accepted")
	}
}

func TestSiteIDsPrefixed(t *testing.T) {
	zones, cities := fixtures(t)
	d, err := Generate(zones, cities)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Sites {
		if !strings.HasPrefix(s.ID, "edge-") {
			t.Errorf("site ID %q missing edge- prefix", s.ID)
		}
	}
}
