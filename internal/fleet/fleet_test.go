package fleet

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/placement"
)

// toy is a minimal driver: apps are named, hold a CPU-only demand, and
// leave in live-table order.
type toy struct {
	rows   []Row
	live   []toyApp
	queued []string
	refuse error
}

type toyApp struct {
	name string
	row  int
	cpu  float64
}

func (t *toy) Rows() int           { return len(t.rows) }
func (t *toy) Row(j int) *Row      { return &t.rows[j] }
func (t *toy) ID(j int) string     { return fmt.Sprintf("r%d", j) }
func (t *toy) Vacated(j int) error { return t.refuse }

func (t *toy) Live() int           { return len(t.live) }
func (t *toy) Hosts(j, i int) bool { return t.live[i].row == j }

func (t *toy) Evict(j int, apps []int) {
	for _, i := range apps {
		t.rows[j].Used[cluster.ResCPUMilli] -= t.live[i].cpu
		t.queued = append(t.queued, t.live[i].name)
	}
	for k := len(apps) - 1; k >= 0; k-- {
		t.live = append(t.live[:apps[k]], t.live[apps[k]+1:]...)
	}
}

func (t *toy) AddRow(city string, dev energy.Device, capMilli float64, on bool) error {
	t.rows = append(t.rows, Row{City: city, Device: dev, Base: cluster.NewResources(capMilli, 0, 0, 0), On: on})
	return nil
}

// newToy builds two rows in zone Z (cities X and Y, 10 CPU each) and
// places the apps on them in the given live order.
func newToy(apps ...toyApp) *toy {
	t := &toy{rows: []Row{
		{City: "X", Zone: "Z", Device: energy.A2, Base: cluster.NewResources(10, 0, 0, 0), On: true},
		{City: "Y", Zone: "Z", Device: energy.XeonE5, Base: cluster.NewResources(10, 0, 0, 0), On: true},
	}}
	for _, a := range apps {
		t.rows[a.row].Used[cluster.ResCPUMilli] += a.cpu
		t.live = append(t.live, a)
	}
	return t
}

func names(t *toy) []string {
	var out []string
	for _, a := range t.live {
		out = append(out, a.name)
	}
	return out
}

func TestCrashEvictsInLiveOrder(t *testing.T) {
	d := newToy(toyApp{"a", 0, 1}, toyApp{"b", 1, 1}, toyApp{"c", 0, 1})
	var a Applicator
	out, err := a.Apply(d, events.Fault{Kind: events.FaultCrash, Site: "X"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "c"}; !reflect.DeepEqual(d.queued, want) {
		t.Errorf("evicted %v, want %v", d.queued, want)
	}
	if r := d.rows[0]; !r.Down || r.On || r.Free() != (cluster.Resources{}) {
		t.Errorf("crashed row down %v on %v free %v", r.Down, r.On, r.Free())
	}
	if out.Crashed != 1 || !reflect.DeepEqual(names(d), []string{"b"}) {
		t.Errorf("crashed %d, live %v", out.Crashed, names(d))
	}
	if out, _ := a.Apply(d, events.Fault{Kind: events.FaultCrash, Site: "X"}); out.Crashed != 0 {
		t.Error("a down row crashed twice")
	}
	a.PowerOn = true
	if out, _ := a.Apply(d, events.Fault{Kind: events.FaultRecover, Zone: "Z"}); out.Recovered != 1 || d.rows[0].Down || !d.rows[0].On {
		t.Errorf("recover: %d rows, down %v on %v", out.Recovered, d.rows[0].Down, d.rows[0].On)
	}
}

func TestCrashRefusedWhenNotVacated(t *testing.T) {
	d := newToy()
	d.refuse = errors.New("still hosts")
	var a Applicator
	if _, err := a.Apply(d, events.Fault{Kind: events.FaultCrash, Site: "Y"}); err == nil {
		t.Fatal("crash of an unvacated row accepted")
	}
	if r := d.rows[1]; r.Down || !r.On {
		t.Errorf("refused crash changed the row: down %v on %v", r.Down, r.On)
	}
}

func TestDegradeEvictsNewestUntilFits(t *testing.T) {
	d := newToy(toyApp{"a", 0, 4}, toyApp{"b", 0, 4}, toyApp{"c", 0, 2})
	var a Applicator
	if _, err := a.Apply(d, events.Fault{Kind: events.FaultDegrade, Site: "X", Factor: 0.5}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"c", "b"}; !reflect.DeepEqual(d.queued, want) {
		t.Errorf("evicted %v, want %v", d.queued, want)
	}
	r := &d.rows[0]
	if r.Cap()[cluster.ResCPUMilli] != 5 || r.Free()[cluster.ResCPUMilli] != 1 {
		t.Errorf("degraded cap %v free %v", r.Cap(), r.Free())
	}
	r.Used[cluster.ResCPUMilli] = 7 // a degraded row's free never goes below zero
	if r.Free()[cluster.ResCPUMilli] != 0 {
		t.Errorf("over-full degraded row offers %v", r.Free())
	}
	if _, err := a.Apply(d, events.Fault{Kind: events.FaultDegrade, Site: "X", Factor: 1}); err != nil || r.Factor != 0 || r.Cap() != r.Base {
		t.Errorf("factor 1 left factor %g, cap %v (err %v)", r.Factor, r.Cap(), err)
	}
}

func TestForecastSkew(t *testing.T) {
	var a Applicator
	d := newToy()
	if _, err := a.Apply(d, events.Fault{Kind: events.FaultForecastError, Zone: "Z", Factor: 3}); err != nil || a.Skew["Z"] != 3 {
		t.Fatalf("skew %v (err %v)", a.Skew, err)
	}
	if got, other := a.Forecast("Z", 100), a.Forecast("W", 100); got != 300 || other != 100 {
		t.Errorf("forecast 100 reads %g in the skewed zone, %g elsewhere", got, other)
	}
	if _, err := a.Apply(d, events.Fault{Kind: events.FaultForecastError, Zone: "Z", Factor: 1}); err != nil || len(a.Skew) != 0 {
		t.Errorf("factor 1 left skew %v (err %v)", a.Skew, err)
	}
}

func TestScaleOutDeviceAndCount(t *testing.T) {
	f := events.Fault{Kind: events.FaultScaleOut, Site: "Y", CapacityMilli: 7}
	var live Applicator // device= required
	if err := live.Check(newToy(), f); err == nil || !strings.Contains(err.Error(), "needs device=") {
		t.Errorf("scale-out without device=: %v", err)
	}
	a := Applicator{DefaultDevice: energy.XeonE5.Name, PowerOn: true}
	d := newToy()
	if _, err := a.Apply(d, f); err != nil {
		t.Fatal(err)
	}
	if len(d.rows) != 3 || d.rows[2].Device.Name != energy.XeonE5.Name || !d.rows[2].On {
		t.Fatalf("count 0 added %d rows, last %+v", len(d.rows)-2, d.rows[len(d.rows)-1])
	}
	f.Count, f.Device = 2, energy.A2.Name
	if _, err := a.Apply(d, f); err != nil || len(d.rows) != 5 || d.rows[4].Device.Name != energy.A2.Name {
		t.Errorf("count 2 of A2: %d rows (err %v)", len(d.rows), err)
	}
}

func TestCheckRejectsUnknownTargets(t *testing.T) {
	var a Applicator
	for _, f := range []events.Fault{
		{Kind: events.FaultCrash, Site: "Atlantis"},
		{Kind: events.FaultForecastError, Zone: "Nowhere", Factor: 2},
		{Kind: events.FaultScaleOut, Site: "X", Device: "no-such-device", CapacityMilli: 1},
	} {
		if err := a.Check(newToy(), f); err == nil {
			t.Errorf("%s accepted", f)
		}
	}
	if err := a.Check(newToy(), events.Fault{Kind: events.FaultCrash, Site: "X", Zone: "Z"}); err != nil {
		t.Error(err)
	}
}

func TestServerProjectsRow(t *testing.T) {
	d := newToy(toyApp{"a", 1, 4})
	d.rows[1].Factor = 0.5
	got := Server(d, 1)
	want := placement.Server{ID: "r1", DC: "Y", Device: energy.XeonE5.Name, BasePowerW: energy.XeonE5.IdleW,
		PoweredOn: true, Free: cluster.NewResources(1, 0, 0, 0)}
	if got != want {
		t.Errorf("row 1 projects to %+v, want %+v", got, want)
	}
	d.rows[1].Down, d.rows[1].On = true, false
	if got := Server(d, 1); got.PoweredOn || got.Free != (cluster.Resources{}) {
		t.Errorf("a down row offers %v (on %v)", got.Free, got.PoweredOn)
	}
}

func TestPhysical(t *testing.T) {
	// load is what the toy's live set holds on each row.
	load := func(d *toy) []Load {
		l := make([]Load, len(d.rows))
		for _, a := range d.live {
			l[a.row].Demand[cluster.ResCPUMilli] += a.cpu
			l[a.row].Apps++
		}
		return l
	}
	d := newToy(toyApp{"a", 0, 4}, toyApp{"b", 0, 4})
	if err := Physical(d, load(d), map[string]float64{"Z": 2}); err != nil {
		t.Fatalf("physical table refused: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		bad        func(d *toy) map[string]float64
	}{
		{"used off its apps' sum", "sum to", func(d *toy) map[string]float64 { d.rows[0].Used[cluster.ResCPUMilli] = 7; return nil }},
		{"over capacity", "over-committed", func(d *toy) map[string]float64 { d.rows[0].Factor = 0.5; return nil }},
		{"factor 2", "outside (0, 1]", func(d *toy) map[string]float64 { d.rows[1].Factor = 2; return nil }},
		{"factor NaN", "outside (0, 1]", func(d *toy) map[string]float64 { d.rows[1].Factor = math.NaN(); return nil }},
		{"down and on", "down and powered on", func(d *toy) map[string]float64 { d.rows[1].Down = true; return nil }},
		{"hosting row off", "hosts 2 apps", func(d *toy) map[string]float64 { d.rows[0].On = false; return nil }},
		{"hosting row down", "hosts 2 apps", func(d *toy) map[string]float64 { d.rows[0].Down, d.rows[0].On = true, false; return nil }},
		{"skew 0", "not above 0", func(d *toy) map[string]float64 { return map[string]float64{"Z": 0} }},
		{"skew NaN", "not above 0", func(d *toy) map[string]float64 { return map[string]float64{"Z": math.NaN()} }},
	} {
		d := newToy(toyApp{"a", 0, 4}, toyApp{"b", 0, 4})
		skew := tc.bad(d)
		if err := Physical(d, load(d), skew); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
