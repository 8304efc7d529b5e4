package sim

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/placement"
)

// checkPhysical returns the first way e's state is not physical, or nil:
// every live app runs a profiled (model, device) pairing within the SLO
// (under the solver's own 1e-9 latency gate), and carries its class's
// true cells, exactly: the demand and power that Coefficients gives its
// (model, device) at appRatePerSec, and the RTT from its source site to
// its hosting site. A stale or misapplied class hint would attach another
// class's rows. The rows, fed what the live apps hold on each, must pass
// fleet.Physical, and the placement workspace must hold each row as it
// is: its server view's Free and PoweredOn equal fleet.Server's of the
// row, which a missed write-through (syncRow) breaks.
//
// NewEngineFrom refuses every snapshot that restores to a state failing
// it, and the tests run it after every epoch: a state no run can reach
// is not resumed.
func checkPhysical(e *Engine) error {
	load := make([]fleet.Load, len(e.servers))
	live := e.live.items()
	for i := range live {
		a := &live[i]
		srv := &e.servers[a.srv]
		model, device := e.pool.models[a.mi], srv.Device.Name
		prof, err := energy.ProfileFor(model, device)
		if err != nil {
			return fmt.Errorf("live app %d: %v", i, err)
		}
		if d, w, _ := placement.Coefficients(prof, appRatePerSec); a.demand != d || a.powerW != w {
			return fmt.Errorf("live app %d (%s on %s) holds demand %v at %g W, its cell is %v at %g W",
				i, model, device, a.demand, a.powerW, d, w)
		}
		if want := e.rtt[a.srcSite][a.site]; a.rttMs != want {
			return fmt.Errorf("live app %d from site %d on site %d at %g ms RTT, want %g ms", i, a.srcSite, a.site, a.rttMs, want)
		}
		if a.site != srv.site {
			return fmt.Errorf("live app %d runs at site %d, its server %d at site %d", i, a.site, a.srv, srv.site)
		}
		if !(a.rttMs <= e.cfg.RTTLimitMs+1e-9) {
			return fmt.Errorf("live app %d at %.6f ms RTT, limit %g ms", i, a.rttMs, e.cfg.RTTLimitMs)
		}
		l := &load[a.srv]
		l.Demand = l.Demand.Add(a.demand)
		l.Apps++
	}
	if err := fleet.Physical((*engineRows)(e), load, e.faults.Skew); err != nil {
		return err
	}
	if n := e.ws.NumServers(); n != len(e.servers) {
		return fmt.Errorf("workspace holds %d servers, the engine %d rows", n, len(e.servers))
	}
	for j := range e.servers {
		got, want := e.ws.Server(j), fleet.Server((*engineRows)(e), j)
		if got.Free != want.Free || got.PoweredOn != want.PoweredOn {
			return fmt.Errorf("server %s: workspace holds free %v powered on %t, its row free %v powered on %t",
				want.ID, got.Free, got.PoweredOn, want.Free, want.PoweredOn)
		}
	}
	return nil
}
