package geo

import (
	"math"
	"sort"
)

// Index is a spatial index over a fixed set of named points supporting
// nearest-neighbour and radius queries. It uses a simple latitude-sorted
// list with pruning, which is ample for the few hundred edge sites and
// carbon zones this system manages while avoiding the complexity of a full
// k-d tree.
type Index struct {
	names  []string
	points []Point
	// order holds indices sorted by latitude for pruned scans.
	order []int
}

// NewIndex builds an index over parallel slices of names and points.
// It panics if the slices have different lengths.
func NewIndex(names []string, points []Point) *Index {
	if len(names) != len(points) {
		panic("geo: NewIndex name/point length mismatch")
	}
	idx := &Index{
		names:  append([]string(nil), names...),
		points: append([]Point(nil), points...),
		order:  make([]int, len(points)),
	}
	for i := range idx.order {
		idx.order[i] = i
	}
	sort.Slice(idx.order, func(a, b int) bool {
		return idx.points[idx.order[a]].Lat < idx.points[idx.order[b]].Lat
	})
	return idx
}

// Nearest returns the name, point, and distance of the indexed point
// closest to q. ok is false when the index is empty.
func (idx *Index) Nearest(q Point) (name string, p Point, distKm float64, ok bool) {
	if len(idx.points) == 0 {
		return "", Point{}, 0, false
	}
	best := -1
	bestDist := math.Inf(1)
	// Scan outward from q's latitude in the sorted order; stop when the
	// latitude gap alone exceeds the best distance found so far.
	lo := sort.Search(len(idx.order), func(i int) bool {
		return idx.points[idx.order[i]].Lat >= q.Lat
	})
	hi := lo
	lo--
	const kmPerDegLat = math.Pi / 180 * EarthRadiusKm
	for lo >= 0 || hi < len(idx.order) {
		if lo >= 0 {
			i := idx.order[lo]
			latGap := math.Abs(idx.points[i].Lat-q.Lat) * kmPerDegLat
			if latGap > bestDist {
				lo = -1
			} else {
				if d := q.DistanceKm(idx.points[i]); d < bestDist {
					bestDist, best = d, i
				}
				lo--
			}
		}
		if hi < len(idx.order) {
			i := idx.order[hi]
			latGap := math.Abs(idx.points[i].Lat-q.Lat) * kmPerDegLat
			if latGap > bestDist {
				hi = len(idx.order)
			} else {
				if d := q.DistanceKm(idx.points[i]); d < bestDist {
					bestDist, best = d, i
				}
				hi++
			}
		}
	}
	return idx.names[best], idx.points[best], bestDist, true
}

// WithinRadius returns the indices of all points within radiusKm of q,
// sorted by increasing distance. The query point itself is included when it
// is part of the index.
func (idx *Index) WithinRadius(q Point, radiusKm float64) []int {
	type hit struct {
		i int
		d float64
	}
	var hits []hit
	for i, p := range idx.points {
		if d := q.DistanceKm(p); d <= radiusKm {
			hits = append(hits, hit{i, d})
		}
	}
	sort.Slice(hits, func(a, b int) bool { return hits[a].d < hits[b].d })
	out := make([]int, len(hits))
	for i, h := range hits {
		out[i] = h.i
	}
	return out
}
