package carbon

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/geo"
	"repro/internal/rng"
)

// Region identifies the broad geography a zone belongs to. The paper's
// dataset covers 54 US zones, 45 European zones, and 49 elsewhere.
type Region int

// Supported regions.
const (
	RegionUS Region = iota
	RegionEurope
	RegionOther
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case RegionUS:
		return "US"
	case RegionEurope:
		return "Europe"
	default:
		return "Other"
	}
}

// Zone is a carbon zone: a geographic area whose grid operator reports
// carbon-intensity data (§3.1). Capacity describes the zone's generation
// fleet in "demand units": 1.0 equals the zone's mean hourly demand, so a
// Capacity[Gas] of 0.8 means the zone's gas fleet can cover 80% of mean
// demand.
type Zone struct {
	ID       string
	Name     string
	Country  string
	Region   Region
	Location geo.Point
	AreaKm2  float64
	Capacity Mix
}

// Validate reports structural problems with the zone definition.
func (z *Zone) Validate() error {
	if z.ID == "" {
		return fmt.Errorf("carbon: zone with empty ID")
	}
	if !z.Location.Valid() {
		return fmt.Errorf("carbon: zone %s has invalid location %v", z.ID, z.Location)
	}
	if z.Capacity.Total() <= 0 {
		return fmt.Errorf("carbon: zone %s has no generation capacity", z.ID)
	}
	// A zone must be able to cover mean demand from firm (non-VRE)
	// capacity, otherwise dispatch would leave demand unmet at night.
	var firm float64
	for s, c := range z.Capacity {
		if !Source(s).Renewable() {
			firm += c
		}
	}
	if firm < 1.0 {
		return fmt.Errorf("carbon: zone %s firm capacity %.2f < 1.0 demand units", z.ID, firm)
	}
	return nil
}

// Registry is an immutable set of carbon zones with geographic lookup.
type Registry struct {
	zones []*Zone
	byID  map[string]*Zone
	index *geo.Index
}

// NewRegistry builds a registry from the given zones. Zone IDs must be
// unique and every zone must validate.
func NewRegistry(zones []*Zone) (*Registry, error) {
	r := &Registry{
		byID: make(map[string]*Zone, len(zones)),
	}
	names := make([]string, 0, len(zones))
	points := make([]geo.Point, 0, len(zones))
	for _, z := range zones {
		if err := z.Validate(); err != nil {
			return nil, err
		}
		if _, dup := r.byID[z.ID]; dup {
			return nil, fmt.Errorf("carbon: duplicate zone ID %q", z.ID)
		}
		r.byID[z.ID] = z
		r.zones = append(r.zones, z)
		names = append(names, z.ID)
		points = append(points, z.Location)
	}
	r.index = geo.NewIndex(names, points)
	return r, nil
}

// Len returns the number of zones.
func (r *Registry) Len() int { return len(r.zones) }

// Zones returns all zones in registration order. The slice must not be
// modified.
func (r *Registry) Zones() []*Zone { return r.zones }

// ByID returns the zone with the given ID, or nil.
func (r *Registry) ByID(id string) *Zone { return r.byID[id] }

// ZoneFor returns the zone geographically closest to p — the integration
// rule used to map edge data centers to carbon zones (§6.1.1 step 1).
func (r *Registry) ZoneFor(p geo.Point) *Zone {
	id, _, _, ok := r.index.Nearest(p)
	if !ok {
		return nil
	}
	return r.byID[id]
}

// ZonesWithin returns zones within radiusKm of p sorted by distance.
func (r *Registry) ZonesWithin(p geo.Point, radiusKm float64) []*Zone {
	idxs := r.index.WithinRadius(p, radiusKm)
	out := make([]*Zone, len(idxs))
	for i, j := range idxs {
		out[i] = r.zones[j]
	}
	return out
}

// cap is shorthand for building Capacity mixes in the zone tables below.
func zcap(solar, wind, hydro, nuclear, biomass, gas, oil, coal float64) Mix {
	var m Mix
	m[Solar], m[Wind], m[Hydro], m[Nuclear] = solar, wind, hydro, nuclear
	m[Biomass], m[Gas], m[Oil], m[Coal] = biomass, gas, oil, coal
	return m
}

// CuratedZones returns the hand-calibrated zones named in the paper:
// the four mesoscale regions of Figure 2 (Florida, West US, Italy, Central
// Europe; five zones each), the four Figure 1 reference zones, and a
// handful of CDN anchor zones referenced in the seasonality analysis
// (Figure 13). Capacities are tuned so the paper's spread ratios emerge
// from dispatch.
func CuratedZones() []*Zone {
	return []*Zone{
		// --- Florida (Figure 2a): ~2.5x instantaneous spread. Miami is
		// the greenest (Turkey Point nuclear); the panhandle leans gas;
		// Jacksonville keeps coal in the mix.
		{ID: "US-FL-MIA", Name: "Miami", Country: "US", Region: RegionUS,
			Location: geo.Point{Lat: 25.7617, Lon: -80.1918}, AreaKm2: 15890,
			Capacity: zcap(0.35, 0.00, 0.00, 0.35, 0.02, 0.95, 0.02, 0.00)},
		{ID: "US-FL-ORL", Name: "Orlando", Country: "US", Region: RegionUS,
			Location: geo.Point{Lat: 28.5384, Lon: -81.3789}, AreaKm2: 9610,
			Capacity: zcap(0.25, 0.00, 0.00, 0.00, 0.03, 1.10, 0.04, 0.15)},
		{ID: "US-FL-TPA", Name: "Tampa", Country: "US", Region: RegionUS,
			Location: geo.Point{Lat: 27.9506, Lon: -82.4572}, AreaKm2: 6580,
			Capacity: zcap(0.30, 0.00, 0.00, 0.00, 0.02, 1.00, 0.03, 0.25)},
		{ID: "US-FL-JAX", Name: "Jacksonville", Country: "US", Region: RegionUS,
			Location: geo.Point{Lat: 30.3322, Lon: -81.6557}, AreaKm2: 2265,
			Capacity: zcap(0.15, 0.00, 0.00, 0.00, 0.02, 0.75, 0.05, 0.55)},
		{ID: "US-FL-TLH", Name: "Tallahassee", Country: "US", Region: RegionUS,
			Location: geo.Point{Lat: 30.4383, Lon: -84.2807}, AreaKm2: 123.73,
			Capacity: zcap(0.20, 0.00, 0.05, 0.00, 0.02, 1.15, 0.03, 0.00)},

		// --- West US (Figure 2b): ~7.9x instantaneous, 2.7x yearly mean.
		// Kingman is solar-rich (lowest), Flagstaff leans on coal
		// (highest), San Diego is gas+solar.
		{ID: "US-SW-KNG", Name: "Kingman", Country: "US", Region: RegionUS,
			Location: geo.Point{Lat: 35.1894, Lon: -114.0530}, AreaKm2: 34475,
			Capacity: zcap(1.15, 0.35, 0.10, 0.00, 0.00, 1.05, 0.02, 0.00)},
		{ID: "US-SW-LAS", Name: "Las Vegas", Country: "US", Region: RegionUS,
			Location: geo.Point{Lat: 36.1699, Lon: -115.1398}, AreaKm2: 20812,
			Capacity: zcap(0.75, 0.05, 0.15, 0.00, 0.00, 1.00, 0.02, 0.10)},
		{ID: "US-SW-FLG", Name: "Flagstaff", Country: "US", Region: RegionUS,
			Location: geo.Point{Lat: 35.1983, Lon: -111.6513}, AreaKm2: 48332,
			Capacity: zcap(0.20, 0.10, 0.05, 0.00, 0.00, 0.45, 0.02, 0.75)},
		{ID: "US-SW-PHX", Name: "Phoenix", Country: "US", Region: RegionUS,
			Location: geo.Point{Lat: 33.4484, Lon: -112.0740}, AreaKm2: 37810,
			Capacity: zcap(0.45, 0.05, 0.05, 0.50, 0.00, 0.66, 0.02, 0.19)},
		{ID: "US-SW-SAN", Name: "San Diego", Country: "US", Region: RegionUS,
			Location: geo.Point{Lat: 32.7157, Lon: -117.1611}, AreaKm2: 11020,
			Capacity: zcap(0.65, 0.15, 0.05, 0.00, 0.02, 1.00, 0.02, 0.00)},

		// --- Italy (Figure 2c): ~2.2x spread. Arezzo (Tuscany) benefits
		// from hydro+geothermal-like low-carbon supply (modelled as
		// hydro), the islands burn oil and coal.
		{ID: "IT-MIL", Name: "Milan", Country: "IT", Region: RegionEurope,
			Location: geo.Point{Lat: 45.4642, Lon: 9.1900}, AreaKm2: 22450,
			Capacity: zcap(0.25, 0.05, 0.30, 0.00, 0.05, 1.00, 0.05, 0.00)},
		{ID: "IT-ROM", Name: "Rome", Country: "IT", Region: RegionEurope,
			Location: geo.Point{Lat: 41.9028, Lon: 12.4964}, AreaKm2: 17240,
			Capacity: zcap(0.30, 0.08, 0.15, 0.00, 0.04, 1.05, 0.05, 0.00)},
		{ID: "IT-CAG", Name: "Cagliari", Country: "IT", Region: RegionEurope,
			Location: geo.Point{Lat: 39.2238, Lon: 9.1217}, AreaKm2: 24100,
			Capacity: zcap(0.30, 0.25, 0.02, 0.00, 0.03, 0.55, 0.15, 0.50)},
		{ID: "IT-PAL", Name: "Palermo", Country: "IT", Region: RegionEurope,
			Location: geo.Point{Lat: 38.1157, Lon: 13.3615}, AreaKm2: 25710,
			Capacity: zcap(0.28, 0.20, 0.02, 0.00, 0.02, 0.90, 0.20, 0.00)},
		{ID: "IT-ARE", Name: "Arezzo", Country: "IT", Region: RegionEurope,
			Location: geo.Point{Lat: 43.4633, Lon: 11.8797}, AreaKm2: 3230,
			Capacity: zcap(0.35, 0.05, 0.45, 0.00, 0.08, 0.65, 0.02, 0.00)},

		// --- Central Europe (Figure 2d): ~19.5x instantaneous, 10.8x
		// yearly. Bern is almost entirely hydro+nuclear; Lyon is French
		// nuclear; Munich carries German coal+gas; Graz is Austrian
		// hydro; Milan is shared with the Italy region.
		{ID: "CH-BRN", Name: "Bern", Country: "CH", Region: RegionEurope,
			Location: geo.Point{Lat: 46.9480, Lon: 7.4474}, AreaKm2: 5950,
			Capacity: zcap(0.10, 0.02, 0.75, 0.40, 0.02, 0.30, 0.00, 0.00)},
		{ID: "DE-MUC", Name: "Munich", Country: "DE", Region: RegionEurope,
			Location: geo.Point{Lat: 48.1351, Lon: 11.5820}, AreaKm2: 27700,
			Capacity: zcap(0.45, 0.35, 0.08, 0.00, 0.05, 0.55, 0.02, 0.65)},
		{ID: "FR-LYO", Name: "Lyon", Country: "FR", Region: RegionEurope,
			Location: geo.Point{Lat: 45.7640, Lon: 4.8357}, AreaKm2: 43700,
			Capacity: zcap(0.12, 0.08, 0.12, 0.85, 0.02, 0.33, 0.00, 0.00)},
		{ID: "AT-GRZ", Name: "Graz", Country: "AT", Region: RegionEurope,
			Location: geo.Point{Lat: 47.0707, Lon: 15.4395}, AreaKm2: 16400,
			Capacity: zcap(0.15, 0.10, 0.85, 0.00, 0.06, 0.35, 0.00, 0.00)},

		// --- Figure 1 reference zones.
		{ID: "CA-ON", Name: "Ontario", Country: "CA", Region: RegionOther,
			Location: geo.Point{Lat: 43.6532, Lon: -79.3832}, AreaKm2: 917741,
			Capacity: zcap(0.05, 0.10, 0.35, 0.75, 0.02, 0.25, 0.00, 0.00)},
		{ID: "US-CAL", Name: "California", Country: "US", Region: RegionUS,
			Location: geo.Point{Lat: 37.7749, Lon: -122.4194}, AreaKm2: 423970,
			Capacity: zcap(0.70, 0.20, 0.20, 0.08, 0.03, 0.95, 0.01, 0.00)},
		{ID: "US-NY", Name: "New York", Country: "US", Region: RegionUS,
			Location: geo.Point{Lat: 40.7128, Lon: -74.0060}, AreaKm2: 141300,
			Capacity: zcap(0.08, 0.08, 0.30, 0.25, 0.02, 0.85, 0.03, 0.00)},
		{ID: "PL", Name: "Poland", Country: "PL", Region: RegionEurope,
			Location: geo.Point{Lat: 52.2297, Lon: 21.0122}, AreaKm2: 312696,
			Capacity: zcap(0.10, 0.18, 0.02, 0.00, 0.03, 0.20, 0.02, 1.05)},

		// --- CDN anchor zones referenced in Figure 13's seasonality
		// analysis.
		{ID: "FR-PAR", Name: "Paris", Country: "FR", Region: RegionEurope,
			Location: geo.Point{Lat: 48.8566, Lon: 2.3522}, AreaKm2: 12012,
			Capacity: zcap(0.10, 0.12, 0.10, 1.10, 0.02, 0.15, 0.00, 0.00)},
		{ID: "NO-OSL", Name: "Oslo", Country: "NO", Region: RegionEurope,
			Location: geo.Point{Lat: 59.9139, Lon: 10.7522}, AreaKm2: 454,
			Capacity: zcap(0.02, 0.10, 1.45, 0.00, 0.01, 0.02, 0.00, 0.00)},
		{ID: "AT-VIE", Name: "Vienna", Country: "AT", Region: RegionEurope,
			Location: geo.Point{Lat: 48.2082, Lon: 16.3738}, AreaKm2: 414,
			Capacity: zcap(0.18, 0.25, 0.55, 0.00, 0.05, 0.60, 0.00, 0.00)},
		{ID: "HR-ZAG", Name: "Zagreb", Country: "HR", Region: RegionEurope,
			Location: geo.Point{Lat: 45.8150, Lon: 15.9819}, AreaKm2: 641,
			Capacity: zcap(0.12, 0.15, 0.55, 0.00, 0.04, 0.55, 0.05, 0.15)},
		{ID: "US-UT-SLC", Name: "Salt Lake City", Country: "US", Region: RegionUS,
			Location: geo.Point{Lat: 40.7608, Lon: -111.8910}, AreaKm2: 28910,
			Capacity: zcap(0.25, 0.10, 0.03, 0.00, 0.00, 0.50, 0.02, 0.85)},
	}
}

// archetype is a generation-fleet template used to synthesize the zones the
// paper's dataset contains beyond the named ones.
type archetype struct {
	name string
	base Mix
}

var archetypes = []archetype{
	{"coal-heavy", zcap(0.12, 0.15, 0.05, 0.00, 0.02, 0.30, 0.02, 0.90)},
	{"gas-heavy", zcap(0.20, 0.10, 0.05, 0.00, 0.02, 1.10, 0.05, 0.05)},
	{"gas-solar", zcap(0.65, 0.10, 0.05, 0.00, 0.02, 1.00, 0.02, 0.05)},
	{"nuclear", zcap(0.10, 0.10, 0.15, 0.95, 0.02, 0.20, 0.00, 0.00)},
	{"hydro-rich", zcap(0.08, 0.10, 1.10, 0.00, 0.02, 0.20, 0.00, 0.00)},
	{"wind-heavy", zcap(0.15, 0.85, 0.10, 0.00, 0.03, 0.80, 0.02, 0.15)},
	{"mixed", zcap(0.30, 0.25, 0.20, 0.25, 0.03, 0.60, 0.02, 0.20)},
}

// regionArchetypes biases the synthetic fill per region: the US grid at
// mesoscale is dominated by gas (with solar in the south-west and residual
// coal), while Europe mixes very-low-carbon hydro/nuclear/wind grids with
// coal-heavy ones — which is exactly why the paper finds larger savings in
// Europe (Figure 11). Indices refer to the archetypes table above.
var regionArchetypes = map[Region][]int{
	RegionUS:     {0, 1, 1, 2, 2, 2, 6},       // mostly gas & gas-solar, some coal
	RegionEurope: {0, 0, 1, 3, 3, 4, 4, 5, 6}, // coal next to nuclear/hydro/wind
	RegionOther:  {0, 1, 2, 3, 4, 5, 6},       // balanced
}

var regionBoxes = map[Region]geo.BBox{
	RegionUS:     {MinLat: 26, MaxLat: 47, MinLon: -122, MaxLon: -71},
	RegionEurope: {MinLat: 37, MaxLat: 59, MinLon: -8, MaxLon: 24},
	RegionOther:  {MinLat: -35, MaxLat: 45, MinLon: 100, MaxLon: 150},
}

// DefaultRegistry builds the full 148-zone registry the evaluation uses:
// curated zones plus deterministic synthetic fill so the totals match the
// paper's dataset (54 US, 45 Europe, 49 elsewhere). The seed fixes the
// synthetic zones' locations and fleets.
func DefaultRegistry(seed int64) (*Registry, error) {
	zones := CuratedZones()
	counts := map[Region]int{}
	for _, z := range zones {
		counts[z.Region]++
	}
	targets := map[Region]int{RegionUS: 54, RegionEurope: 45, RegionOther: 49}
	for _, reg := range []Region{RegionUS, RegionEurope, RegionOther} {
		rng := rng.NewStd(seed ^ int64(reg)<<32 ^ 0x5eed)
		box := regionBoxes[reg]
		for i := counts[reg]; i < targets[reg]; i++ {
			pool := regionArchetypes[reg]
			arch := archetypes[pool[rng.Intn(len(pool))]]
			capMix := arch.base
			for s := range capMix {
				capMix[s] *= 0.75 + 0.5*rng.Float64()
			}
			// Guarantee firm coverage of mean demand.
			var firm float64
			for s, c := range capMix {
				if !Source(s).Renewable() {
					firm += c
				}
			}
			if firm < 1.05 {
				capMix[Gas] += 1.05 - firm
			}
			z := &Zone{
				ID:      fmt.Sprintf("%s-Z%02d", reg, i),
				Name:    fmt.Sprintf("%s synthetic zone %d (%s)", reg, i, arch.name),
				Country: reg.String(),
				Region:  reg,
				Location: geo.Point{
					Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
					Lon: box.MinLon + rng.Float64()*(box.MaxLon-box.MinLon),
				},
				AreaKm2:  500 + rng.Float64()*40000,
				Capacity: capMix,
			}
			zones = append(zones, z)
		}
	}
	sort.Slice(zones, func(i, j int) bool { return zones[i].ID < zones[j].ID })
	return NewRegistry(zones)
}

// zoneSeed derives a per-zone deterministic RNG seed from the base seed.
func zoneSeed(base int64, zoneID string) int64 {
	h := fnv.New64a()
	h.Write([]byte(zoneID))
	return base ^ int64(h.Sum64())
}
