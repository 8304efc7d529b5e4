package carbon

import (
	"strings"
	"testing"

	"repro/internal/geo"
)

func TestCuratedZonesValid(t *testing.T) {
	for _, z := range CuratedZones() {
		if err := z.Validate(); err != nil {
			t.Errorf("curated zone invalid: %v", err)
		}
	}
}

func TestZoneValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		z    Zone
		want string
	}{
		{"empty-id", Zone{}, "empty ID"},
		{"bad-location", Zone{ID: "x", Location: geo.Point{Lat: 95}}, "invalid location"},
		{"no-capacity", Zone{ID: "x", Location: geo.Point{Lat: 10, Lon: 10}}, "no generation capacity"},
		{"vre-only", Zone{ID: "x", Location: geo.Point{Lat: 10, Lon: 10},
			Capacity: zcap(2, 2, 0, 0, 0, 0.2, 0, 0)}, "firm capacity"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.z.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, c.want)
			}
		})
	}
}

func TestNewRegistryDuplicateID(t *testing.T) {
	z := CuratedZones()[0]
	if _, err := NewRegistry([]*Zone{z, z}); err == nil {
		t.Error("duplicate IDs should be rejected")
	}
}

func TestDefaultRegistryCounts(t *testing.T) {
	r, err := DefaultRegistry(42)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 148 {
		t.Errorf("registry has %d zones, paper dataset has 148", r.Len())
	}
	inRegion := map[Region]int{}
	for _, z := range r.Zones() {
		inRegion[z.Region]++
	}
	if got := inRegion[RegionUS]; got != 54 {
		t.Errorf("US zones = %d, want 54", got)
	}
	if got := inRegion[RegionEurope]; got != 45 {
		t.Errorf("Europe zones = %d, want 45", got)
	}
	if got := inRegion[RegionOther]; got != 49 {
		t.Errorf("Other zones = %d, want 49", got)
	}
}

func TestDefaultRegistryDeterministic(t *testing.T) {
	a, err := DefaultRegistry(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultRegistry(42)
	if err != nil {
		t.Fatal(err)
	}
	for i, za := range a.Zones() {
		zb := b.Zones()[i]
		if za.ID != zb.ID || za.Location != zb.Location || za.Capacity != zb.Capacity {
			t.Fatalf("registry not deterministic at %d: %v vs %v", i, za, zb)
		}
	}
}

func TestRegistryLookups(t *testing.T) {
	r, err := DefaultRegistry(42)
	if err != nil {
		t.Fatal(err)
	}
	if z := r.ByID("US-FL-MIA"); z == nil || z.Name != "Miami" {
		t.Errorf("ByID(US-FL-MIA) = %v", z)
	}
	if z := r.ByID("missing"); z != nil {
		t.Error("ByID(missing) should be nil")
	}
	// A point in downtown Miami must map to the Miami zone.
	z := r.ZoneFor(geo.Point{Lat: 25.77, Lon: -80.19})
	if z == nil || z.ID != "US-FL-MIA" {
		t.Errorf("ZoneFor(Miami) = %v", z)
	}
}

func TestZonesWithinMesoscaleRadius(t *testing.T) {
	r, err := DefaultRegistry(42)
	if err != nil {
		t.Fatal(err)
	}
	bern := r.ByID("CH-BRN")
	within := r.ZonesWithin(bern.Location, 500)
	// Central-EU cluster (Bern, Milan, Lyon, Munich) is within ~500 km.
	ids := map[string]bool{}
	for _, z := range within {
		ids[z.ID] = true
	}
	for _, want := range []string{"CH-BRN", "IT-MIL", "FR-LYO", "DE-MUC"} {
		if !ids[want] {
			t.Errorf("ZonesWithin(Bern, 500km) missing %s", want)
		}
	}
	if within[0].ID != "CH-BRN" {
		t.Errorf("nearest zone to Bern should be Bern, got %s", within[0].ID)
	}
}

func TestCuratedFloridaGeometry(t *testing.T) {
	// Sanity check from Figure 2a: the Florida region's bounding box is
	// annotated 807km x 712km; we accept a generous band.
	var pts []geo.Point
	for _, z := range CuratedZones() {
		if strings.HasPrefix(z.ID, "US-FL-") {
			pts = append(pts, z.Location)
		}
	}
	if len(pts) != 5 {
		t.Fatalf("expected 5 Florida zones, got %d", len(pts))
	}
	w, h := geo.NewBBox(pts).SpanKm()
	if w < 200 || w > 900 || h < 200 || h > 900 {
		t.Errorf("Florida bbox %0.fx%.0f km outside mesoscale band", w, h)
	}
}

func TestZoneSeedDistinct(t *testing.T) {
	if zoneSeed(1, "A") == zoneSeed(1, "B") {
		t.Error("different zones must get different seeds")
	}
	if zoneSeed(1, "A") != zoneSeed(1, "A") {
		t.Error("zone seed must be deterministic")
	}
}
