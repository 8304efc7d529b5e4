// Package deploy generates and integrates the edge-site dataset the
// evaluation runs on. The paper uses a proprietary Akamai CDN trace of 496
// edge data centers across the US and Europe; this package substitutes a
// deterministic population-weighted site generator over the embedded city
// registry, then applies the paper's integration rules (§6.1.1):
//
//  1. map each site to its carbon zone by coordinates,
//  2. map each site to its nearest latency-dataset city,
//  3. drop sites without carbon or latency coverage,
//  4. merge co-located sites (same city) into one.
package deploy

import (
	"fmt"
	"sort"

	"repro/internal/carbon"
	"repro/internal/geo"
	"repro/internal/latency"
	"repro/internal/rng"
)

// Site is one CDN edge data center after integration.
type Site struct {
	ID       string
	Location geo.Point
	// City is the nearest latency-registry city.
	City string
	// ZoneID is the serving carbon zone.
	ZoneID string
	// Region is inherited from the carbon zone.
	Region carbon.Region
	// Weight is the site's relative size (merged site count), used when
	// distributing demand and capacity.
	Weight float64
	// PopulationM is the nearest city's population in millions, the
	// proxy for demand/capacity in Figure 14.
	PopulationM float64
}

// Site generation at the paper's dataset scale.
const (
	// totalSites is the pre-merge site count (paper: 496).
	totalSites = 496
	// usPercent is the share of sites placed in the US, 272 of 496 (the
	// remainder goes to Europe). Akamai's US footprint is larger.
	usPercent = 55
	// seed fixes placement randomness.
	seed = 42
	// scatterKm jitters sites around their anchor city.
	scatterKm = 40
)

// Deployment is the integrated site set.
type Deployment struct {
	Sites []Site
	// byRegion caches region partitions.
	byRegion map[carbon.Region][]*Site
}

// Generate builds the deployment: population-weighted multinomial
// placement of sites over cities, then integration against the given zone
// registry and city registry.
func Generate(zones *carbon.Registry, cities *latency.CityRegistry) (*Deployment, error) {
	if zones == nil || cities == nil {
		return nil, fmt.Errorf("deploy: nil registry")
	}
	rng := rng.NewStd(seed)

	usCities := latency.USCities()
	euCities := latency.EuropeCities()
	nUS := totalSites * usPercent / 100
	nEU := totalSites - nUS

	type rawSite struct {
		loc  geo.Point
		city latency.City
	}
	var raw []rawSite
	place := func(cs []latency.City, n int) {
		var totalPop float64
		for _, c := range cs {
			totalPop += c.PopulationM
		}
		for i := 0; i < n; i++ {
			// Population-weighted city pick.
			r := rng.Float64() * totalPop
			var city latency.City
			for _, c := range cs {
				r -= c.PopulationM
				if r <= 0 {
					city = c
					break
				}
			}
			if city.Name == "" {
				city = cs[len(cs)-1]
			}
			// Scatter around the city (rough km-to-degree conversion).
			dLat := (rng.Float64()*2 - 1) * scatterKm / 111
			dLon := (rng.Float64()*2 - 1) * scatterKm / 85
			raw = append(raw, rawSite{
				loc:  geo.Point{Lat: city.Location.Lat + dLat, Lon: city.Location.Lon + dLon},
				city: city,
			})
		}
	}
	place(usCities, nUS)
	place(euCities, nEU)

	// Integration: zone mapping, city mapping, merge by city.
	merged := map[string]*Site{}
	for _, rs := range raw {
		zone := zones.ZoneFor(rs.loc)
		if zone == nil {
			continue // rule 3: no carbon coverage
		}
		city, _, ok := cities.Nearest(rs.loc)
		if !ok {
			continue // rule 3: no latency coverage
		}
		if s, exists := merged[city.Name]; exists {
			s.Weight++ // rule 4: merge co-located sites
			continue
		}
		merged[city.Name] = &Site{
			ID:          "edge-" + city.Name,
			Location:    city.Location,
			City:        city.Name,
			ZoneID:      zone.ID,
			Region:      zone.Region,
			Weight:      1,
			PopulationM: city.PopulationM,
		}
	}

	d := &Deployment{byRegion: make(map[carbon.Region][]*Site)}
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d.Sites = append(d.Sites, *merged[name])
	}
	for i := range d.Sites {
		s := &d.Sites[i]
		d.byRegion[s.Region] = append(d.byRegion[s.Region], s)
	}
	return d, nil
}

// InRegion returns the sites in a region.
func (d *Deployment) InRegion(r carbon.Region) []*Site { return d.byRegion[r] }
