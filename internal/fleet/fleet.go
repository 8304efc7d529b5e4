// Package fleet is the server table's row and what the simulator and the
// live orchestrator decide about it in one place: the fault applicator,
// the row's projection into the placement workspace, the forecast
// placement reads for its zone, and the physical row check. A row is a
// server's dynamic state: what it can host, what it hosts, and whether it
// is on, crashed or degraded. The applicator decides what each
// events.Fault does to a table of rows; the layer that owns the table
// (the driver) supplies only what is really its own: how an app leaves a
// row, in its live order, and how a scale-out row is built.
package fleet

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/placement"
)

// ForecastHours is the window of the mean forecast I_j placement reads
// for a row's zone.
const ForecastHours = 24

// Row is one server's dynamic state, the part of a server the fault
// applicator reads and writes.
type Row struct {
	// City and Zone place the row: a fault's site= and zone= match them.
	City, Zone string
	Device     energy.Device
	// Base is the undegraded capacity.
	Base cluster.Resources
	// Factor is a degrade fault's capacity multiplier, 0 at full
	// capacity.
	Factor float64
	Used   cluster.Resources
	On     bool
	// Down marks a crashed server: it offers no capacity and cannot be
	// woken until a recover fault.
	Down bool
}

// Cap is the row's effective capacity: Base, scaled when degraded.
func (r *Row) Cap() cluster.Resources {
	if r.Factor == 0 {
		return r.Base
	}
	return r.Base.Scale(r.Factor)
}

// Free is the capacity placement may still allocate on the row: none on
// a crashed one, and on a degraded one what remains of the scaled
// capacity, never below zero. It is kept within the inliner's budget:
// the engine writes a row through it on every change to the row, and
// the orchestrator syncs every row through it before every solve.
func (r *Row) Free() (free cluster.Resources) {
	if !r.Down {
		free = r.Cap().Sub(r.Used)
		if r.Factor != 0 {
			free = free.ClampNonNegative()
		}
	}
	return free
}

// Server is row j of d's table as the placement workspace registers it:
// its ID, city, device and idle draw, with its power state and Free
// capacity as of now. A driver keeps both current in the workspace: the
// engine writes a row through wherever it changes, the orchestrator
// re-syncs every row before every solve.
func Server(d Driver, j int) placement.Server {
	r := d.Row(j)
	return placement.Server{
		ID:         d.ID(j),
		DC:         r.City,
		Device:     r.Device.Name,
		BasePowerW: r.Device.IdleW,
		PoweredOn:  r.On,
		Free:       r.Free(),
	}
}

// Load is what a driver's live set holds on one row: the summed demand
// of the apps it hosts and their count.
type Load struct {
	Demand cluster.Resources
	Apps   int
}

// Physical returns the first way d's rows are not physical, or nil.
// load[j] is what the driver's live set holds on row j, summed in one
// pass over it, and skew the forecast skews in force. A row's Used equals
// its load's demand (within 1e-9 per dimension) and fits its Cap(); its
// degrade factor is 0 or in (0, 1]; a down row is off; no app sits on a
// down or powered-off row; and every skew is above 0.
func Physical(d Driver, load []Load, skew map[string]float64) error {
	for j := 0; j < d.Rows(); j++ {
		r, l := d.Row(j), &load[j]
		for k := range r.Used {
			if !(math.Abs(r.Used[k]-l.Demand[k]) <= 1e-9) {
				return fmt.Errorf("server %s used %v, its live apps sum to %v", d.ID(j), r.Used, l.Demand)
			}
		}
		if !(r.Factor == 0 || r.Factor > 0 && r.Factor <= 1) {
			return fmt.Errorf("server %s degraded by %g, outside (0, 1]", d.ID(j), r.Factor)
		}
		if !r.Used.Fits(r.Cap()) {
			return fmt.Errorf("server %s over-committed: used %v, capacity %v", d.ID(j), r.Used, r.Cap())
		}
		if r.Down && r.On {
			return fmt.Errorf("server %s is down and powered on", d.ID(j))
		}
		if l.Apps > 0 && (r.Down || !r.On) {
			return fmt.Errorf("server %s hosts %d apps (down %v, on %v)", d.ID(j), l.Apps, r.Down, r.On)
		}
	}
	for _, zone := range slices.Sorted(maps.Keys(skew)) {
		if f := skew[zone]; !(f > 0) {
			return fmt.Errorf("zone %s forecast skewed by %g, not above 0", zone, f)
		}
	}
	return nil
}

// Driver is the layer that owns a table of rows.
type Driver interface {
	// Rows is the table's length; Row(j) is row j, in table order, and
	// ID(j) the name it is registered with the placement workspace under.
	Rows() int
	Row(j int) *Row
	ID(j int) string
	// Live is the length of the driver's live table, in its live order;
	// Hosts reports whether row j hosts the app at live position i.
	Live() int
	Hosts(j, i int) bool
	// Evict takes the apps at the given live positions (ascending) off
	// row j, in that order: each app's demand leaves the row and the app
	// is queued back for placement. Later positions shift down; earlier
	// ones stay valid.
	Evict(j int, apps []int)
	// Vacated is asked, once a crash has evicted every app row j hosts,
	// whether the row is empty. An error refuses the crash and the row
	// stays up: nothing hosted is powered off (Eq. 4).
	Vacated(j int) error
	// AddRow builds one scale-out row of dev with capMilli compute at
	// city, powered on when on, and adds it to the table.
	AddRow(city string, dev energy.Device, capMilli float64, on bool) error
}

// Applicator applies faults to a driver's table. Its two settings are
// the driver's own: the device a scale-out without device= adds, and
// the power state of recovered and scaled-out rows.
type Applicator struct {
	// DefaultDevice is the device a scale-out with no device= adds; ""
	// makes device= required.
	DefaultDevice string
	// PowerOn is the power state a recovered or scaled-out row starts in.
	PowerOn bool
	// Skew is the active per-zone forecast multiplier (forecast-error
	// faults): placement sees the zone's forecast times Skew[zone].
	Skew map[string]float64
}

// Forecast is the intensity placement sees for zone when its mean
// forecast over ForecastHours is mean: an active forecast-error fault
// skews it. Accrual and telemetry still charge the true hourly intensity.
// Each driver calls it once per zone, from its per-zone memo.
func (a *Applicator) Forecast(zone string, mean float64) float64 {
	if f, ok := a.Skew[zone]; ok {
		mean *= f
	}
	return mean
}

// Outcome counts the rows one fault took down and brought back.
type Outcome struct {
	Crashed, Recovered int
}

// Check rejects a fault no row of d's table can match, so a typo in a
// script fails when it is injected rather than silently doing nothing
// when it is due. A site or zone is known when a row sits there.
func (a *Applicator) Check(d Driver, f events.Fault) error {
	if f.Site != "" && len(match(d, events.Fault{Site: f.Site})) == 0 {
		return fmt.Errorf("fault %s targets unknown site %q", f.Kind, f.Site)
	}
	if f.Zone != "" && len(match(d, events.Fault{Zone: f.Zone})) == 0 {
		return fmt.Errorf("fault %s targets unknown zone %q", f.Kind, f.Zone)
	}
	if f.Kind == events.FaultScaleOut {
		_, err := a.device(f)
		return err
	}
	return nil
}

// device resolves a scale-out's device, defaulting a missing device= to
// DefaultDevice.
func (a *Applicator) device(f events.Fault) (energy.Device, error) {
	name := cmp.Or(f.Device, a.DefaultDevice)
	if name == "" {
		return energy.Device{}, fmt.Errorf("scale-out fault needs device=")
	}
	dev, err := energy.DeviceByName(name)
	if err != nil {
		err = fmt.Errorf("scale-out fault: %w", err)
	}
	return dev, err
}

// match returns the rows a fault targets, in table order.
func match(d Driver, f events.Fault) []int {
	idx := make([]int, 0, d.Rows())
	for j := 0; j < d.Rows(); j++ {
		r := d.Row(j)
		if (f.Site == "" || r.City == f.Site) &&
			(f.Zone == "" || r.Zone == f.Zone) &&
			(f.Device == "" || r.Device.Name == f.Device) {
			idx = append(idx, j)
		}
	}
	return idx
}

// Apply applies one due fault to d's table. A crash evicts everything
// its rows host, in the driver's live order, and powers them off; a
// degrade scales capacity and evicts the newest apps in live order until
// the rest fits; a recover returns crashed rows to service; a forecast
// error sets the zone's Skew (factor 1 clears it); a scale-out adds
// Count rows (at least one) of the fault's device.
func (a *Applicator) Apply(d Driver, f events.Fault) (Outcome, error) {
	var out Outcome
	switch f.Kind {
	case events.FaultCrash:
		for _, j := range match(d, f) {
			if d.Row(j).Down {
				continue
			}
			d.Evict(j, hosted(d, j))
			if err := d.Vacated(j); err != nil {
				return out, err
			}
			r := d.Row(j)
			r.Down, r.On = true, false
			out.Crashed++
		}
	case events.FaultRecover:
		for _, j := range match(d, f) {
			r := d.Row(j)
			if !r.Down {
				continue
			}
			r.Down, r.On = false, a.PowerOn
			out.Recovered++
		}
	case events.FaultDegrade:
		for _, j := range match(d, f) {
			r := d.Row(j)
			r.Factor = f.Factor
			if f.Factor == 1 {
				r.Factor = 0
			}
			evictOverflow(d, j)
		}
	case events.FaultForecastError:
		if f.Factor == 1 {
			delete(a.Skew, f.Zone)
			break
		}
		if a.Skew == nil {
			a.Skew = map[string]float64{} //detlint:hotalloc cold: once, on the first forecast-error fault of a run
		}
		a.Skew[f.Zone] = f.Factor
	case events.FaultScaleOut:
		dev, err := a.device(f)
		if err != nil {
			return out, err
		}
		for k := 0; k < max(f.Count, 1); k++ {
			if err := d.AddRow(f.Site, dev, f.CapacityMilli, a.PowerOn); err != nil {
				return out, err
			}
		}
	default:
		return out, fmt.Errorf("unknown fault kind %q", f.Kind)
	}
	return out, nil
}

// evictOverflow evicts the newest apps on row j, in the driver's live
// order, until its usage fits its (possibly degraded) capacity: the
// apps first in live order keep their placement.
func evictOverflow(d Driver, j int) {
	r := d.Row(j)
	apps := hosted(d, j)
	for i := len(apps) - 1; i >= 0 && !r.Used.Fits(r.Cap()); i-- {
		d.Evict(j, apps[i:i+1])
	}
}

// hosted lists the live positions of the apps row j hosts, ascending.
func hosted(d Driver, j int) []int {
	apps := make([]int, 0, d.Live())
	for i := 0; i < d.Live(); i++ {
		if d.Hosts(j, i) {
			apps = append(apps, i)
		}
	}
	return apps
}
