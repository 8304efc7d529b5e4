package sim

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/placement"
)

// checkPhysical returns the first way e's state is not physical, or nil:
// every server's used equals the sum of its live apps' demands (1e-9 per
// dimension) and fits its effective capacity, a down server is off, no
// live app sits on a down or powered-off server, and every live app runs a profiled (model, device) pairing
// within the SLO (under the solver's own 1e-9 latency gate). Every live
// app also carries its class's true cells, exactly: the demand and power
// that Coefficients gives its (model, device) at the config's rate, and
// the RTT from its source site to its hosting site. A stale or misapplied
// class hint would attach another class's rows.
//
// NewEngineFrom refuses every snapshot that restores to a state failing
// it, and the tests run it after every epoch: a state no run can reach
// is not resumed.
func checkPhysical(e *Engine) error {
	sums := make([]cluster.Resources, len(e.servers))
	for i := range e.live {
		a := &e.live[i]
		srv := &e.servers[a.srv]
		if srv.Down || !srv.On {
			return fmt.Errorf("live app %d (%s) on server %d (down %v, on %v)", i, a.model, a.srv, srv.Down, srv.On)
		}
		prof, err := energy.ProfileFor(a.model, a.device)
		if err != nil {
			return fmt.Errorf("live app %d: %v", i, err)
		}
		if d, w, _ := placement.Coefficients(prof, e.cfg.RatePerSec); a.demand != d || a.powerW != w {
			return fmt.Errorf("live app %d (%s on %s) holds demand %v at %g W, its cell is %v at %g W",
				i, a.model, a.device, a.demand, a.powerW, d, w)
		}
		if want := e.rtt[a.srcSite][a.site]; a.rttMs != want {
			return fmt.Errorf("live app %d from site %d on site %d at %g ms RTT, want %g ms", i, a.srcSite, a.site, a.rttMs, want)
		}
		if a.device != srv.Device.Name {
			return fmt.Errorf("live app %d runs on device %s, its server %d is %s", i, a.device, a.srv, srv.Device.Name)
		}
		if !(a.rttMs <= e.cfg.RTTLimitMs+1e-9) {
			return fmt.Errorf("live app %d at %.6f ms RTT, limit %g ms", i, a.rttMs, e.cfg.RTTLimitMs)
		}
		sums[a.srv] = sums[a.srv].Add(a.demand)
	}
	for j := range e.servers {
		srv := &e.servers[j]
		for k := range srv.Used {
			if !(math.Abs(srv.Used[k]-sums[j][k]) <= 1e-9) {
				return fmt.Errorf("server %d used %v, its live apps sum to %v", j, srv.Used, sums[j])
			}
		}
		if !srv.Used.Fits(srv.Cap()) {
			return fmt.Errorf("server %d over-committed: used %v, capacity %v", j, srv.Used, srv.Cap())
		}
		if srv.Down && srv.On {
			return fmt.Errorf("server %d is down and powered on", j)
		}
	}
	return nil
}
