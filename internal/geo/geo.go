// Package geo provides geographic primitives used throughout CarbonEdge:
// coordinates, great-circle distances, bounding boxes, and nearest-neighbour
// search over point sets. Distances are geodesic (haversine) in kilometres.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used for haversine distances.
const EarthRadiusKm = 6371.0088

// Point is a geographic coordinate in decimal degrees.
type Point struct {
	Lat float64 // latitude, -90..90
	Lon float64 // longitude, -180..180
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.4f, %.4f)", p.Lat, p.Lon)
}

// Valid reports whether the point lies within legal latitude/longitude
// ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

// DistanceKm returns the great-circle distance between p and q in
// kilometres using the haversine formula, which is numerically stable for
// the mesoscale distances (tens to ~1500 km) this system deals with.
func (p Point) DistanceKm(q Point) float64 {
	const degToRad = math.Pi / 180
	lat1 := p.Lat * degToRad
	lat2 := q.Lat * degToRad
	dLat := (q.Lat - p.Lat) * degToRad
	dLon := (q.Lon - p.Lon) * degToRad

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// BBox is a latitude/longitude axis-aligned bounding box.
type BBox struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// NewBBox returns the tightest bounding box containing all points. It
// panics on an empty input because an empty box has no meaningful zero
// value.
func NewBBox(pts []Point) BBox {
	if len(pts) == 0 {
		panic("geo: NewBBox on empty point set")
	}
	b := BBox{
		MinLat: pts[0].Lat, MaxLat: pts[0].Lat,
		MinLon: pts[0].Lon, MaxLon: pts[0].Lon,
	}
	for _, p := range pts[1:] {
		b.MinLat = math.Min(b.MinLat, p.Lat)
		b.MaxLat = math.Max(b.MaxLat, p.Lat)
		b.MinLon = math.Min(b.MinLon, p.Lon)
		b.MaxLon = math.Max(b.MaxLon, p.Lon)
	}
	return b
}

// SpanKm returns the approximate width and height of the box in kilometres,
// measured along the box's mid-latitude. This matches the "807km x 712km"
// style annotations on the paper's Figure 2 maps.
func (b BBox) SpanKm() (widthKm, heightKm float64) {
	midLat := (b.MinLat + b.MaxLat) / 2
	w := Point{Lat: midLat, Lon: b.MinLon}.DistanceKm(Point{Lat: midLat, Lon: b.MaxLon})
	h := Point{Lat: b.MinLat, Lon: b.MinLon}.DistanceKm(Point{Lat: b.MaxLat, Lon: b.MinLon})
	return w, h
}
