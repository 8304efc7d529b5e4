package latency

import (
	"fmt"
	"sort"

	"repro/internal/geo"
)

// CityRegistry is a fixed set of cities with geographic lookup, standing in
// for the WonderNetwork server list (64 US + 64 EU cities in the paper).
type CityRegistry struct {
	cities []City
	byName map[string]int
	index  *geo.Index
}

// NewCityRegistry builds a registry from the given cities. Names must be
// unique.
func NewCityRegistry(cities []City) (*CityRegistry, error) {
	r := &CityRegistry{
		cities: append([]City(nil), cities...),
		byName: make(map[string]int, len(cities)),
	}
	names := make([]string, len(cities))
	pts := make([]geo.Point, len(cities))
	for i, c := range r.cities {
		if _, dup := r.byName[c.Name]; dup {
			return nil, fmt.Errorf("latency: duplicate city %q", c.Name)
		}
		if !c.Location.Valid() {
			return nil, fmt.Errorf("latency: city %q has invalid location", c.Name)
		}
		r.byName[c.Name] = i
		names[i] = c.Name
		pts[i] = c.Location
	}
	r.index = geo.NewIndex(names, pts)
	return r, nil
}

// ByName returns the city and whether it exists.
func (r *CityRegistry) ByName(name string) (City, bool) {
	i, ok := r.byName[name]
	if !ok {
		return City{}, false
	}
	return r.cities[i], true
}

// Nearest returns the city closest to p — the §6.1.1 step-2 integration
// rule mapping each data center to its nearest latency-trace city.
func (r *CityRegistry) Nearest(p geo.Point) (City, float64, bool) {
	name, _, d, ok := r.index.Nearest(p)
	if !ok {
		return City{}, 0, false
	}
	c, _ := r.ByName(name)
	return c, d, true
}

// USCities returns the embedded US city list (major metros plus the
// paper's Florida and West-US measurement cities), sorted by name.
func USCities() []City {
	return sortCities([]City{
		{"Atlanta", "US", geo.Point{Lat: 33.7490, Lon: -84.3880}, 6.1},
		{"Austin", "US", geo.Point{Lat: 30.2672, Lon: -97.7431}, 2.3},
		{"Baltimore", "US", geo.Point{Lat: 39.2904, Lon: -76.6122}, 2.8},
		{"Boston", "US", geo.Point{Lat: 42.3601, Lon: -71.0589}, 4.9},
		{"Buffalo", "US", geo.Point{Lat: 42.8864, Lon: -78.8784}, 1.1},
		{"Charlotte", "US", geo.Point{Lat: 35.2271, Lon: -80.8431}, 2.7},
		{"Chicago", "US", geo.Point{Lat: 41.8781, Lon: -87.6298}, 9.5},
		{"Cincinnati", "US", geo.Point{Lat: 39.1031, Lon: -84.5120}, 2.3},
		{"Cleveland", "US", geo.Point{Lat: 41.4993, Lon: -81.6944}, 2.1},
		{"Columbus", "US", geo.Point{Lat: 39.9612, Lon: -82.9988}, 2.1},
		{"Dallas", "US", geo.Point{Lat: 32.7767, Lon: -96.7970}, 7.6},
		{"Denver", "US", geo.Point{Lat: 39.7392, Lon: -104.9903}, 3.0},
		{"Des Moines", "US", geo.Point{Lat: 41.5868, Lon: -93.6250}, 0.7},
		{"Detroit", "US", geo.Point{Lat: 42.3314, Lon: -83.0458}, 4.3},
		{"El Paso", "US", geo.Point{Lat: 31.7619, Lon: -106.4850}, 0.9},
		{"Flagstaff", "US", geo.Point{Lat: 35.1983, Lon: -111.6513}, 0.08},
		{"Fresno", "US", geo.Point{Lat: 36.7378, Lon: -119.7871}, 1.0},
		{"Houston", "US", geo.Point{Lat: 29.7604, Lon: -95.3698}, 7.1},
		{"Indianapolis", "US", geo.Point{Lat: 39.7684, Lon: -86.1581}, 2.1},
		{"Jacksonville", "US", geo.Point{Lat: 30.3322, Lon: -81.6557}, 1.6},
		{"Kansas City", "US", geo.Point{Lat: 39.0997, Lon: -94.5786}, 2.2},
		{"Kingman", "US", geo.Point{Lat: 35.1894, Lon: -114.0530}, 0.03},
		{"Las Vegas", "US", geo.Point{Lat: 36.1699, Lon: -115.1398}, 2.3},
		{"Los Angeles", "US", geo.Point{Lat: 34.0522, Lon: -118.2437}, 13.2},
		{"Louisville", "US", geo.Point{Lat: 38.2527, Lon: -85.7585}, 1.3},
		{"Memphis", "US", geo.Point{Lat: 35.1495, Lon: -90.0490}, 1.3},
		{"Miami", "US", geo.Point{Lat: 25.7617, Lon: -80.1918}, 6.2},
		{"Milwaukee", "US", geo.Point{Lat: 43.0389, Lon: -87.9065}, 1.6},
		{"Minneapolis", "US", geo.Point{Lat: 44.9778, Lon: -93.2650}, 3.7},
		{"Nashville", "US", geo.Point{Lat: 36.1627, Lon: -86.7816}, 2.0},
		{"New Orleans", "US", geo.Point{Lat: 29.9511, Lon: -90.0715}, 1.3},
		{"New York", "US", geo.Point{Lat: 40.7128, Lon: -74.0060}, 19.8},
		{"Oklahoma City", "US", geo.Point{Lat: 35.4676, Lon: -97.5164}, 1.4},
		{"Omaha", "US", geo.Point{Lat: 41.2565, Lon: -95.9345}, 1.0},
		{"Orlando", "US", geo.Point{Lat: 28.5384, Lon: -81.3789}, 2.7},
		{"Philadelphia", "US", geo.Point{Lat: 39.9526, Lon: -75.1652}, 6.2},
		{"Phoenix", "US", geo.Point{Lat: 33.4484, Lon: -112.0740}, 4.9},
		{"Pittsburgh", "US", geo.Point{Lat: 40.4406, Lon: -79.9959}, 2.4},
		{"Portland", "US", geo.Point{Lat: 45.5152, Lon: -122.6784}, 2.5},
		{"Raleigh", "US", geo.Point{Lat: 35.7796, Lon: -78.6382}, 1.4},
		{"Richmond", "US", geo.Point{Lat: 37.5407, Lon: -77.4360}, 1.3},
		{"Sacramento", "US", geo.Point{Lat: 38.5816, Lon: -121.4944}, 2.4},
		{"Salt Lake City", "US", geo.Point{Lat: 40.7608, Lon: -111.8910}, 1.2},
		{"San Antonio", "US", geo.Point{Lat: 29.4241, Lon: -98.4936}, 2.6},
		{"San Diego", "US", geo.Point{Lat: 32.7157, Lon: -117.1611}, 3.3},
		{"San Francisco", "US", geo.Point{Lat: 37.7749, Lon: -122.4194}, 4.7},
		{"San Jose", "US", geo.Point{Lat: 37.3382, Lon: -121.8863}, 2.0},
		{"Seattle", "US", geo.Point{Lat: 47.6062, Lon: -122.3321}, 4.0},
		{"St. Louis", "US", geo.Point{Lat: 38.6270, Lon: -90.1994}, 2.8},
		{"Tallahassee", "US", geo.Point{Lat: 30.4383, Lon: -84.2807}, 0.4},
		{"Tampa", "US", geo.Point{Lat: 27.9506, Lon: -82.4572}, 3.2},
		{"Tucson", "US", geo.Point{Lat: 32.2226, Lon: -110.9747}, 1.1},
		{"Tulsa", "US", geo.Point{Lat: 36.1540, Lon: -95.9928}, 1.0},
		{"Washington", "US", geo.Point{Lat: 38.9072, Lon: -77.0369}, 6.3},
		{"Albany", "US", geo.Point{Lat: 42.6526, Lon: -73.7562}, 0.9},
		{"Albuquerque", "US", geo.Point{Lat: 35.0844, Lon: -106.6504}, 0.9},
		{"Boise", "US", geo.Point{Lat: 43.6150, Lon: -116.2023}, 0.8},
		{"Birmingham", "US", geo.Point{Lat: 33.5186, Lon: -86.8104}, 1.1},
		{"Charleston", "US", geo.Point{Lat: 32.7765, Lon: -79.9311}, 0.8},
		{"Hartford", "US", geo.Point{Lat: 41.7658, Lon: -72.6734}, 1.2},
		{"Little Rock", "US", geo.Point{Lat: 34.7465, Lon: -92.2896}, 0.7},
		{"Madison", "US", geo.Point{Lat: 43.0722, Lon: -89.4008}, 0.7},
		{"Reno", "US", geo.Point{Lat: 39.5296, Lon: -119.8138}, 0.5},
		{"Spokane", "US", geo.Point{Lat: 47.6588, Lon: -117.4260}, 0.6},
	})
}

// EuropeCities returns the embedded European city list (major metros plus
// the paper's Italy and Central-EU measurement cities), sorted by name.
func EuropeCities() []City {
	return sortCities([]City{
		{"Amsterdam", "NL", geo.Point{Lat: 52.3676, Lon: 4.9041}, 2.5},
		{"Arezzo", "IT", geo.Point{Lat: 43.4633, Lon: 11.8797}, 0.1},
		{"Athens", "GR", geo.Point{Lat: 37.9838, Lon: 23.7275}, 3.2},
		{"Barcelona", "ES", geo.Point{Lat: 41.3874, Lon: 2.1686}, 5.6},
		{"Belgrade", "RS", geo.Point{Lat: 44.7866, Lon: 20.4489}, 1.7},
		{"Berlin", "DE", geo.Point{Lat: 52.5200, Lon: 13.4050}, 3.7},
		{"Bern", "CH", geo.Point{Lat: 46.9480, Lon: 7.4474}, 0.4},
		{"Bologna", "IT", geo.Point{Lat: 44.4949, Lon: 11.3426}, 1.0},
		{"Bordeaux", "FR", geo.Point{Lat: 44.8378, Lon: -0.5792}, 1.0},
		{"Bratislava", "SK", geo.Point{Lat: 48.1486, Lon: 17.1077}, 0.7},
		{"Brussels", "BE", geo.Point{Lat: 50.8503, Lon: 4.3517}, 2.1},
		{"Bucharest", "RO", geo.Point{Lat: 44.4268, Lon: 26.1025}, 2.2},
		{"Budapest", "HU", geo.Point{Lat: 47.4979, Lon: 19.0402}, 3.0},
		{"Cagliari", "IT", geo.Point{Lat: 39.2238, Lon: 9.1217}, 0.4},
		{"Cologne", "DE", geo.Point{Lat: 50.9375, Lon: 6.9603}, 1.1},
		{"Copenhagen", "DK", geo.Point{Lat: 55.6761, Lon: 12.5683}, 2.1},
		{"Dublin", "IE", geo.Point{Lat: 53.3498, Lon: -6.2603}, 1.9},
		{"Dusseldorf", "DE", geo.Point{Lat: 51.2277, Lon: 6.7735}, 1.2},
		{"Edinburgh", "GB", geo.Point{Lat: 55.9533, Lon: -3.1883}, 0.9},
		{"Florence", "IT", geo.Point{Lat: 43.7696, Lon: 11.2558}, 1.0},
		{"Frankfurt", "DE", geo.Point{Lat: 50.1109, Lon: 8.6821}, 2.7},
		{"Gdansk", "PL", geo.Point{Lat: 54.3520, Lon: 18.6466}, 1.0},
		{"Geneva", "CH", geo.Point{Lat: 46.2044, Lon: 6.1432}, 0.6},
		{"Gothenburg", "SE", geo.Point{Lat: 57.7089, Lon: 11.9746}, 1.0},
		{"Graz", "AT", geo.Point{Lat: 47.0707, Lon: 15.4395}, 0.6},
		{"Hamburg", "DE", geo.Point{Lat: 53.5511, Lon: 9.9937}, 2.5},
		{"Helsinki", "FI", geo.Point{Lat: 60.1699, Lon: 24.9384}, 1.5},
		{"Krakow", "PL", geo.Point{Lat: 50.0647, Lon: 19.9450}, 1.7},
		{"Lille", "FR", geo.Point{Lat: 50.6292, Lon: 3.0573}, 1.2},
		{"Lisbon", "PT", geo.Point{Lat: 38.7223, Lon: -9.1393}, 2.9},
		{"Ljubljana", "SI", geo.Point{Lat: 46.0569, Lon: 14.5058}, 0.5},
		{"London", "GB", geo.Point{Lat: 51.5074, Lon: -0.1278}, 9.5},
		{"Luxembourg", "LU", geo.Point{Lat: 49.6116, Lon: 6.1319}, 0.6},
		{"Lyon", "FR", geo.Point{Lat: 45.7640, Lon: 4.8357}, 2.3},
		{"Madrid", "ES", geo.Point{Lat: 40.4168, Lon: -3.7038}, 6.7},
		{"Manchester", "GB", geo.Point{Lat: 53.4808, Lon: -2.2426}, 2.8},
		{"Marseille", "FR", geo.Point{Lat: 43.2965, Lon: 5.3698}, 1.8},
		{"Milan", "IT", geo.Point{Lat: 45.4642, Lon: 9.1900}, 4.3},
		{"Munich", "DE", geo.Point{Lat: 48.1351, Lon: 11.5820}, 2.9},
		{"Naples", "IT", geo.Point{Lat: 40.8518, Lon: 14.2681}, 3.1},
		{"Nice", "FR", geo.Point{Lat: 43.7102, Lon: 7.2620}, 1.0},
		{"Nuremberg", "DE", geo.Point{Lat: 49.4521, Lon: 11.0767}, 0.8},
		{"Oslo", "NO", geo.Point{Lat: 59.9139, Lon: 10.7522}, 1.5},
		{"Palermo", "IT", geo.Point{Lat: 38.1157, Lon: 13.3615}, 1.2},
		{"Paris", "FR", geo.Point{Lat: 48.8566, Lon: 2.3522}, 11.1},
		{"Porto", "PT", geo.Point{Lat: 41.1579, Lon: -8.6291}, 1.7},
		{"Prague", "CZ", geo.Point{Lat: 50.0755, Lon: 14.4378}, 2.7},
		{"Riga", "LV", geo.Point{Lat: 56.9496, Lon: 24.1052}, 1.0},
		{"Rome", "IT", geo.Point{Lat: 41.9028, Lon: 12.4964}, 4.3},
		{"Rotterdam", "NL", geo.Point{Lat: 51.9244, Lon: 4.4777}, 1.0},
		{"Seville", "ES", geo.Point{Lat: 37.3891, Lon: -5.9845}, 1.5},
		{"Sofia", "BG", geo.Point{Lat: 42.6977, Lon: 23.3219}, 1.7},
		{"Stockholm", "SE", geo.Point{Lat: 59.3293, Lon: 18.0686}, 2.4},
		{"Strasbourg", "FR", geo.Point{Lat: 48.5734, Lon: 7.7521}, 0.8},
		{"Stuttgart", "DE", geo.Point{Lat: 48.7758, Lon: 9.1829}, 2.8},
		{"Tallinn", "EE", geo.Point{Lat: 59.4370, Lon: 24.7536}, 0.6},
		{"Thessaloniki", "GR", geo.Point{Lat: 40.6401, Lon: 22.9444}, 1.1},
		{"Turin", "IT", geo.Point{Lat: 45.0703, Lon: 7.6869}, 2.2},
		{"Valencia", "ES", geo.Point{Lat: 39.4699, Lon: -0.3763}, 2.5},
		{"Vienna", "AT", geo.Point{Lat: 48.2082, Lon: 16.3738}, 2.9},
		{"Vilnius", "LT", geo.Point{Lat: 54.6872, Lon: 25.2797}, 0.8},
		{"Warsaw", "PL", geo.Point{Lat: 52.2297, Lon: 21.0122}, 3.1},
		{"Zagreb", "HR", geo.Point{Lat: 45.8150, Lon: 15.9819}, 1.1},
		{"Zurich", "CH", geo.Point{Lat: 47.3769, Lon: 8.5417}, 1.4},
	})
}

// AllCities returns the union of the US and Europe city lists.
func AllCities() []City {
	return append(USCities(), EuropeCities()...)
}

// DefaultCityRegistry builds the registry over all embedded cities.
func DefaultCityRegistry() (*CityRegistry, error) {
	return NewCityRegistry(AllCities())
}

func sortCities(cs []City) []City {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	return cs
}
