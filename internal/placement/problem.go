// Package placement implements CarbonEdge's primary contribution: the
// carbon-aware edge placement problem with latency constraints (§4.2,
// Eq. 1-7), the incremental placement algorithm (Algorithm 1), the
// baseline policies of §6.1.3, and the multi-objective carbon-energy
// extension (Eq. 8).
//
// Two solver backends implement the optimization: an exact MILP backend
// (packages lp + mip, substituting for Google OR-Tools) for instances
// within its envelope, and a greedy + local-search heuristic that scales
// to CDN-sized instances. Both minimize the same policy-defined cost.
//
// Problem instances come from one builder, Workspace: built once per
// world, it persists server state, memoized profile and RTT tables, and
// per-app candidate shortlists across batches, so a batch's view costs
// time proportional to the batch instead of the world. Its lifecycle is
// build → solve → commit → update → re-solve (see the Workspace doc). Both
// backends implement one contract, Solver.SolveInto, and the Placer
// routes each batch to one of them.
package placement

import (
	"fmt"
	"math"

	"repro/internal/cluster"
)

// App is an application awaiting placement: one element of the batch A in
// Algorithm 1.
type App struct {
	// ID uniquely identifies the application in a batch.
	ID string
	// Model is the workload model name (profiles determine demand).
	Model string
	// Source is the data-center/city the application's users attach to.
	Source string
	// SLOms is the round-trip latency limit l_i in milliseconds.
	SLOms float64
	// RatePerSec is the request arrival rate driving energy use.
	RatePerSec float64

	// class is the hint Workspace.Bind records; nil for an unbound app.
	class *candClass
}

// Server is the placement view of one edge server: the Table 2 inputs.
type Server struct {
	// ID uniquely identifies the server.
	ID string
	// DC is the hosting data center.
	DC string
	// Device is the hardware profile name.
	Device string
	// Intensity is the mean forecast carbon intensity I_j (g.CO2eq/kWh)
	// of the server's zone over the placement horizon.
	Intensity float64
	// BasePowerW is the idle power B_j drawn whenever powered on.
	BasePowerW float64
	// PoweredOn is the current power state y_curr_j.
	PoweredOn bool
	// Free is the available capacity vector C_j.
	Free cluster.Resources
}

// Problem is one placement instance: a batch of applications, the server
// set, and the precomputed pairwise inputs.
type Problem struct {
	Apps    []App
	Servers []Server

	// Demand[i][j] is R_ij: app i's resource demand on server j.
	Demand [][]cluster.Resources
	// PowerW[i][j] is app i's average dynamic power draw (watts) on
	// server j; carbon per hour is PowerW/1000 * Intensity.
	PowerW [][]float64
	// LatencyMs[i][j] is the round-trip latency L_ij between app i's
	// source and server j.
	LatencyMs [][]float64
	// Compatible[i][j] reports whether server j can run app i's model at
	// all (e.g. GPU models cannot run on CPU-only servers).
	Compatible [][]bool

	// Candidates lists for each app exactly the servers that are
	// compatible with it and within its SLO, in ascending index order: the
	// shortlist a Workspace precomputes. Solvers trust this contract and
	// scan only these indices, taking every listed server to pass both
	// tests and every other one to fail them; only capacity is left to
	// test.
	Candidates [][]int

	// classOf/classRep are the owning Workspace's class stamp: classOf[i]
	// is app i's dense (source, SLO, model, rate) class index within this
	// view, numbered by first appearance, and classRep[c] is the lowest
	// app index in class c. Apps of one class share their Candidates row
	// and all four matrix rows, so anything derived from those alone can
	// be computed once per class. Both backends solve in these classes.
	classOf  []int32
	classRep []int32

	// gen distinguishes successive contents of a reused Problem value: a
	// Workspace reassembles the same view in place every batch, so
	// pointer identity alone cannot key policy-side caches (see
	// CarbonEnergyBlend.prepare).
	gen uint64
}

// Validate checks structural consistency. A problem must come from
// Workspace.Problem: one without its candidate lists and class stamp, as
// a caller outside this package builds from the exported fields, is an
// error.
func (p *Problem) Validate() error {
	return p.validateWith(map[string]bool{}, map[string]bool{})
}

// validateWith is Validate over caller-provided (empty) ID sets, letting
// hot-loop callers reuse the two uniqueness maps across solves.
func (p *Problem) validateWith(ids, sids map[string]bool) error {
	n, m := len(p.Apps), len(p.Servers)
	if n == 0 {
		return fmt.Errorf("placement: empty application batch")
	}
	if m == 0 {
		return fmt.Errorf("placement: no servers")
	}
	if len(p.Demand) != n || len(p.PowerW) != n || len(p.LatencyMs) != n || len(p.Compatible) != n {
		return fmt.Errorf("placement: matrix row count mismatch")
	}
	for _, a := range p.Apps {
		if ids[a.ID] {
			return fmt.Errorf("placement: duplicate app ID %q", a.ID)
		}
		ids[a.ID] = true
	}
	for _, s := range p.Servers {
		if sids[s.ID] {
			return fmt.Errorf("placement: duplicate server ID %q", s.ID)
		}
		sids[s.ID] = true
	}
	for i := range p.Apps {
		if len(p.Demand[i]) != m || len(p.PowerW[i]) != m || len(p.LatencyMs[i]) != m || len(p.Compatible[i]) != m {
			return fmt.Errorf("placement: matrix column count mismatch at app %d", i)
		}
	}
	if len(p.Candidates) != n || len(p.classOf) != n {
		return fmt.Errorf("placement: problem lacks a Workspace view's class stamp and candidate lists")
	}
	for i, cand := range p.Candidates {
		prev := -1
		for _, j := range cand {
			if j <= prev || j >= m {
				return fmt.Errorf("placement: candidate list for app %d not ascending in [0,%d)", i, m)
			}
			prev = j
		}
	}
	return nil
}

// Feasible reports whether pair (i,j) satisfies the latency constraint
// (Eq. 2), model compatibility, and single-server capacity (necessary
// condition for Eq. 1). This is the FilterFeasibleServers step of
// Algorithm 1. It is exact on every cell of a workspace view: cells
// outside the candidate lists hold true values.
func (p *Problem) Feasible(i, j int) bool { return p.fits(i, j, p.Servers[j].Free) }

// fits is Feasible against the free capacity free.
func (p *Problem) fits(i, j int, free cluster.Resources) bool {
	if !p.Compatible[i][j] {
		return false
	}
	// Written as the negation of the good range, as the workspace
	// shortlist tests it: a NaN latency meets no SLO.
	if !(p.LatencyMs[i][j] <= p.Apps[i].SLOms+1e-9) {
		return false
	}
	return p.Demand[i][j].Fits(free)
}

// FeasibleServers returns the indices of servers feasible for app i.
// Only its candidate list is scanned; servers outside it are infeasible
// by construction.
func (p *Problem) FeasibleServers(i int) []int {
	var out []int
	for _, j := range p.Candidates[i] {
		if p.Feasible(i, j) {
			out = append(out, j)
		}
	}
	return out
}

// Assignment is a solved placement: x and y of the formulation.
type Assignment struct {
	// ServerOf[i] is the chosen server index for app i, or -1 when the
	// app could not be placed (the instance was infeasible for it).
	ServerOf []int
	// PowerOn[j] is the decided power state y_j.
	PowerOn []bool
	// Unplaced lists app indices with no feasible assignment.
	Unplaced []int
}

// CheckFeasible verifies the assignment against the problem's constraints
// (Eq. 1-5), returning the first violation found.
func (p *Problem) CheckFeasible(a *Assignment) error {
	if len(a.ServerOf) != len(p.Apps) || len(a.PowerOn) != len(p.Servers) {
		return fmt.Errorf("placement: assignment shape mismatch")
	}
	used := make([]cluster.Resources, len(p.Servers))
	for i, j := range a.ServerOf {
		if j < 0 {
			continue
		}
		if j >= len(p.Servers) {
			return fmt.Errorf("placement: app %d assigned to invalid server %d", i, j)
		}
		if !p.Compatible[i][j] {
			return fmt.Errorf("placement: app %d incompatible with server %d", i, j)
		}
		if !(p.LatencyMs[i][j] <= p.Apps[i].SLOms+1e-9) {
			return fmt.Errorf("placement: app %d on server %d violates SLO: %.2f > %.2f ms",
				i, j, p.LatencyMs[i][j], p.Apps[i].SLOms)
		}
		if !a.PowerOn[j] {
			return fmt.Errorf("placement: app %d assigned to powered-off server %d (Eq. 5)", i, j)
		}
		used[j] = used[j].Add(p.Demand[i][j])
	}
	for j := range p.Servers {
		if !used[j].Fits(p.Servers[j].Free) {
			return fmt.Errorf("placement: server %d over capacity: %v > %v (Eq. 1)",
				j, used[j], p.Servers[j].Free)
		}
		if p.Servers[j].PoweredOn && !a.PowerOn[j] {
			return fmt.Errorf("placement: server %d powered off while active (Eq. 4)", j)
		}
	}
	return nil
}

// Metrics summarizes an assignment's true (policy-independent) costs.
type Metrics struct {
	// CarbonGPerHour is operational emissions: sum of app dynamic power
	// x zone intensity, plus base power of newly activated servers x
	// intensity (Eq. 6, per hour of operation).
	CarbonGPerHour float64
	// OperationalGPerHour excludes the activation term.
	OperationalGPerHour float64
	// ActivationGPerHour is the newly-activated-server base-power term.
	ActivationGPerHour float64
	// EnergyWAvg is total average power draw (dynamic + newly activated
	// base power), in watts.
	EnergyWAvg float64
	// MeanLatencyMs is the placed apps' mean round-trip latency.
	MeanLatencyMs float64
	// MaxLatencyMs is the worst placed round-trip latency.
	MaxLatencyMs float64
	// Placed and Unplaced count apps.
	Placed, Unplaced int
}

// Evaluate computes the true metrics of an assignment.
func (p *Problem) Evaluate(a *Assignment) Metrics {
	var m Metrics
	var latSum float64
	for i, j := range a.ServerOf {
		if j < 0 {
			m.Unplaced++
			continue
		}
		m.Placed++
		watts := p.PowerW[i][j]
		m.OperationalGPerHour += watts / 1000 * p.Servers[j].Intensity
		m.EnergyWAvg += watts
		latSum += p.LatencyMs[i][j]
		m.MaxLatencyMs = math.Max(m.MaxLatencyMs, p.LatencyMs[i][j])
	}
	for j, s := range p.Servers {
		if a.PowerOn[j] && !s.PoweredOn {
			m.ActivationGPerHour += s.BasePowerW / 1000 * s.Intensity
			m.EnergyWAvg += s.BasePowerW
		}
	}
	m.CarbonGPerHour = m.OperationalGPerHour + m.ActivationGPerHour
	if m.Placed > 0 {
		m.MeanLatencyMs = latSum / float64(m.Placed)
	}
	return m
}
