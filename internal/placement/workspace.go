package placement

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
)

// Workspace is the persistent form of the placement problem: it is built
// once per world and reused across batches and epochs, so the per-batch
// cost of Algorithm 1 is proportional to the batch, not the world.
//
// It is the only production builder of a Problem, and it owns:
//
//   - the live server state (free capacity, power state, per-epoch carbon
//     intensity), advanced incrementally via CommitAssignment,
//     ReleaseApp, UpdateIntensity, SetServerState, and AddServers;
//   - memoized (model, device) profile tables and per-(model, rate)
//     demand/power/compatibility rows over the server axis, resolved once
//     per class instead of once per (app, server) matrix cell;
//   - memoized per-source RTT rows against every server;
//   - per-(source, SLO, model, rate) app classes: the candidate shortlist
//     (the server indices that can ever satisfy the app's latency bound
//     and model compatibility) together with the class's rows. Solvers
//     iterate the shortlists instead of the full server axis, which is
//     what makes CDN-scale batches cheap.
//
// Problem assembles a solver-ready *Problem view against the current
// state by pointing each app's matrix rows at its class's rows: apps of
// one class share one read-only row per matrix, so a view costs O(batch)
// slice headers, not O(batch x servers) cells. The view carries the
// shortlists in Problem.Candidates and solves to the byte-identical
// assignment of the dense problem over the same inputs, which the tests'
// dense builder (Build) fills cell by cell as the view's oracle (see
// TestWorkspaceProblemMatchesBuild and
// TestWorkspaceIncrementalEquivalence).
//
// The lifecycle is build → solve → commit → update → re-solve:
//
//	ws, _ := placement.NewWorkspace(servers, rtt, nil)
//	for each batch {
//		for j, ci := range freshIntensities { ws.UpdateIntensity(j, ci) }
//		p, _ := ws.Problem(batch)
//		a, _ := solver.Solve(p, pol)
//		ws.CommitAssignment(p, a)
//	}
//
// A layer that keeps its own capacity accounting commits through
// SetServerState instead, at one of two costs: the simulator writes a
// server through whenever its row changes (a commit, a departure, a
// fault), so a solve pays only for the intensities that changed; the
// orchestrator re-syncs every server before every solve.
//
// A Workspace is not safe for concurrent use; give each goroutine its own
// (they may share the underlying world — all memo inputs are read-only).
type Workspace struct {
	servers []Server
	rtt     RTTFunc
	profile func(model, device string) (energy.Profile, error)

	rttRows map[string][]float64 // source city -> RTT per server
	classes map[classKey]*appClass
	latOK   map[latKey]*idxSpan
	cands   map[candKey]*candClass
	candEra int // counts resets of cands

	// committed tracks live apps by ID for ReleaseApp.
	committed map[string]commitRec

	// view and the buffers below are the reusable Problem shell: Problem
	// returns &view with its row headers, Candidates rows, class stamp,
	// and Servers snapshot backed by these buffers, so assembling a batch
	// view allocates nothing in steady state. They are valid until the
	// next Problem call.
	view       Problem
	viewGen    uint64
	rowsD      [][]cluster.Resources
	rowsP      [][]float64
	rowsL      [][]float64
	rowsC      [][]bool
	candBuf    [][]int
	classBuf   []int32
	repBuf     []int32
	serversBuf []Server
}

// classKey identifies an app equivalence class: demand, power, and
// compatibility depend only on (model, rate).
type classKey struct {
	model string
	rate  float64
}

// latKey identifies a latency-feasibility shortlist.
type latKey struct {
	source string
	sloMs  float64
}

// candKey identifies an app class: apps with equal keys have identical
// candidate shortlists and identical rows in every matrix.
type candKey struct {
	source string
	sloMs  float64
	model  string
	rate   float64
}

// cell is one (model, rate) class's coefficients on one device.
type cell struct {
	demand cluster.Resources
	powerW float64
	ok     bool
}

// appClass holds the struct-of-arrays rows of one (model, rate) class
// over the server axis, extended on demand. The rows are append-only and
// never rewritten: Problem views alias them.
type appClass struct {
	byDevice map[string]cell
	demand   []cluster.Resources
	power    []float64
	ok       []bool
}

// idxSpan is a server-index shortlist that knows how far along the server
// axis it has been computed, so AddServers extends rather than rebuilds.
type idxSpan struct {
	upTo int
	idx  []int
}

// candClass is one (source, SLO, model, rate) app class as a view sees
// it: the candidate shortlist plus the four shared rows every member app
// aliases, all covering servers [0, upTo). An App bound to it (Bind)
// carries it as its class hint, which a view trusts only while owner is
// the viewing workspace, era its current memo era (no reset has dropped
// the class), and key equals the app's fields.
type candClass struct {
	idxSpan
	owner  *Workspace
	era    int
	key    candKey
	demand []cluster.Resources
	power  []float64
	ok     []bool
	lat    []float64

	// seen/id stamp the class's dense index within the view being
	// assembled (seen == Workspace.viewGen).
	seen uint64
	id   int32
}

// commitRec remembers where a committed app lives and what it holds.
type commitRec struct {
	server int
	demand cluster.Resources
}

// maxMemoEntries bounds each memo table. Keys derive from app attributes
// (source, SLO, model, rate), so a long-lived service fed ever-new rate
// values would otherwise grow the tables without bound; past the cap a
// table resets and rebuilds on demand. Simulation and CDN workloads use a
// handful of keys and never get near it.
const maxMemoEntries = 4096

// memoRoom clears a memo table about to exceed the cap. The reset is
// cheap relative to rebuilding entries on demand, and any single batch is
// far smaller than the cap, so thrash within a batch is impossible.
func memoRoom[K comparable, V any](m map[K]V) map[K]V {
	if len(m) >= maxMemoEntries {
		return make(map[K]V, maxMemoEntries/4)
	}
	return m
}

// NewWorkspace builds a workspace over the initial server set. The rtt
// oracle and profile table must be deterministic; profile nil defaults to
// energy.ProfileFor. The servers slice is copied.
func NewWorkspace(servers []Server, rtt RTTFunc, profile func(model, device string) (energy.Profile, error)) (*Workspace, error) {
	if rtt == nil {
		return nil, fmt.Errorf("placement: nil RTT oracle")
	}
	if profile == nil {
		profile = energy.ProfileFor
	}
	ids := map[string]bool{}
	for _, s := range servers {
		if ids[s.ID] {
			return nil, fmt.Errorf("placement: duplicate server ID %q", s.ID)
		}
		ids[s.ID] = true
	}
	return &Workspace{
		servers:   append([]Server(nil), servers...),
		rtt:       rtt,
		profile:   profile,
		rttRows:   map[string][]float64{},
		classes:   map[classKey]*appClass{},
		latOK:     map[latKey]*idxSpan{},
		cands:     map[candKey]*candClass{},
		committed: map[string]commitRec{},
	}, nil
}

// NumServers returns the current server count.
func (ws *Workspace) NumServers() int { return len(ws.servers) }

// Server returns a copy of server j's current placement view.
func (ws *Workspace) Server(j int) Server { return ws.servers[j] }

// AddServers appends servers to the workspace (scaling the world up
// mid-run). Existing shortlists extend incrementally on next use; indices
// of existing servers are stable.
func (ws *Workspace) AddServers(servers ...Server) error {
	for _, s := range servers {
		for _, have := range ws.servers {
			if have.ID == s.ID {
				return fmt.Errorf("placement: duplicate server ID %q", s.ID)
			}
		}
		ws.servers = append(ws.servers, s)
	}
	return nil
}

// UpdateIntensity sets server j's forecast carbon intensity (the
// carbon-clock tick). Shortlists are intensity-independent, so this is
// O(1).
func (ws *Workspace) UpdateIntensity(j int, intensity float64) {
	ws.servers[j].Intensity = intensity
}

// SetServerState overwrites server j's free capacity and power state.
// Layers that keep their own capacity accounting use this instead of
// CommitAssignment/ReleaseApp: the simulator writes each of its
// aggregate site servers through as the server changes, the
// orchestrator syncs its server table before a solve. It is O(1): the
// next Problem view snapshots the servers.
func (ws *Workspace) SetServerState(j int, free cluster.Resources, poweredOn bool) {
	ws.servers[j].Free = free
	ws.servers[j].PoweredOn = poweredOn
}

// CommitAssignment applies a solved batch to the workspace: hosting
// servers lose the apps' demand and decided power-ons take effect, so the
// next Problem call sees the residual capacity (Algorithm 1's incremental
// step). p must be a Problem built by this workspace (or share its server
// indexing). Committed apps are remembered by ID for ReleaseApp.
func (ws *Workspace) CommitAssignment(p *Problem, a *Assignment) error {
	// Validate the whole assignment before touching any state, so a bad
	// batch never leaves the workspace half-committed.
	if len(a.ServerOf) != len(p.Apps) || len(a.PowerOn) > len(ws.servers) {
		return fmt.Errorf("placement: assignment shape mismatch with workspace")
	}
	seen := make(map[string]bool, len(p.Apps))
	for i, j := range a.ServerOf {
		if j < 0 {
			continue
		}
		if j >= len(ws.servers) {
			return fmt.Errorf("placement: app %d assigned to unknown server %d", i, j)
		}
		id := p.Apps[i].ID
		if _, dup := ws.committed[id]; dup || seen[id] {
			return fmt.Errorf("placement: app %q already committed", id)
		}
		seen[id] = true
	}
	for i, j := range a.ServerOf {
		if j < 0 {
			continue
		}
		ws.servers[j].Free = ws.servers[j].Free.Sub(p.Demand[i][j])
		ws.servers[j].PoweredOn = true
		ws.committed[p.Apps[i].ID] = commitRec{server: j, demand: p.Demand[i][j]}
	}
	for j, on := range a.PowerOn {
		if on {
			ws.servers[j].PoweredOn = true
		}
	}
	return nil
}

// ReleaseApp returns a committed app's resources to its server (teardown
// or departure). The server's power state is left untouched; powering
// down is a policy decision of the owning layer.
func (ws *Workspace) ReleaseApp(id string) error {
	rec, ok := ws.committed[id]
	if !ok {
		return fmt.Errorf("placement: no committed app %q", id)
	}
	ws.servers[rec.server].Free = ws.servers[rec.server].Free.Add(rec.demand)
	delete(ws.committed, id)
	return nil
}

// rttRow returns the memoized RTT row for a source city, extended to the
// current server count.
func (ws *Workspace) rttRow(source string) []float64 {
	row, ok := ws.rttRows[source]
	if !ok {
		ws.rttRows = memoRoom(ws.rttRows)
	}
	for j := len(row); j < len(ws.servers); j++ {
		row = append(row, ws.rtt(source, ws.servers[j].DC))
	}
	ws.rttRows[source] = row
	return row
}

// class returns the memoized coefficient rows for a (model, rate) class,
// extended to the current server count.
func (ws *Workspace) class(model string, rate float64) *appClass {
	key := classKey{model, rate}
	c := ws.classes[key]
	if c == nil {
		ws.classes = memoRoom(ws.classes)
		//detlint:hotalloc memo-miss path: one class entry per distinct (model, rate), cached for the run
		c = &appClass{byDevice: map[string]cell{}}
		ws.classes[key] = c
	}
	for j := len(c.ok); j < len(ws.servers); j++ {
		device := ws.servers[j].Device
		dc, ok := c.byDevice[device]
		if !ok {
			dc = ws.resolveCell(model, device, rate)
			c.byDevice[device] = dc
		}
		c.demand = append(c.demand, dc.demand)
		c.power = append(c.power, dc.powerW)
		c.ok = append(c.ok, dc.ok)
	}
	return c
}

// resolveCell computes one class's demand/power/compatibility on a device
// through Coefficients, once per (model, device, rate).
func (ws *Workspace) resolveCell(model, device string, rate float64) cell {
	prof, err := ws.profile(model, device)
	if err != nil {
		return cell{}
	}
	d, w, ok := Coefficients(prof, rate)
	return cell{demand: d, powerW: w, ok: ok}
}

// latFeasible returns the shortlist of servers within the latency bound
// for (source, slo), extended to the current server count.
func (ws *Workspace) latFeasible(source string, sloMs float64) *idxSpan {
	key := latKey{source, sloMs}
	sp := ws.latOK[key]
	if sp == nil {
		ws.latOK = memoRoom(ws.latOK)
		sp = &idxSpan{} //detlint:hotalloc memo-miss path: one span per distinct (source, SLO), cached for the run
		ws.latOK[key] = sp
	}
	if sp.upTo < len(ws.servers) {
		row := ws.rttRow(source)
		for j := sp.upTo; j < len(ws.servers); j++ {
			if row[j] <= sloMs+1e-9 {
				sp.idx = append(sp.idx, j)
			}
		}
		sp.upTo = len(ws.servers)
	}
	return sp
}

// candClassOf returns the app's class with its shortlist — servers that
// are both within the latency bound and model-compatible, in ascending
// server order (so solver tie-breaks match a full server scan) — and its
// rows extended to the current server count. An app whose class hint is still
// trusted (see candClass) skips the memo lookup; for any other app it is
// the only lookup a view pays.
func (ws *Workspace) candClassOf(a *App) *candClass {
	key := candKey{a.Source, a.SLOms, a.Model, a.RatePerSec}
	c := a.class
	if c == nil || c.owner != ws || c.era != ws.candEra || c.key != key {
		c = ws.cands[key]
	}
	if c == nil {
		if len(ws.cands) >= maxMemoEntries {
			ws.candEra++ // disowns every hint to the dropped classes
		}
		ws.cands = memoRoom(ws.cands)
		c = &candClass{owner: ws, era: ws.candEra, key: key} //detlint:hotalloc memo-miss path: one class per distinct app shape, cached for the run
		ws.cands[key] = c
	}
	if m := len(ws.servers); c.upTo < m {
		lat := ws.latFeasible(a.Source, a.SLOms)
		cls := ws.class(a.Model, a.RatePerSec)
		for _, j := range lat.idx {
			if j >= c.upTo && cls.ok[j] {
				c.idx = append(c.idx, j)
			}
		}
		c.demand, c.power, c.ok = cls.demand[:m:m], cls.power[:m:m], cls.ok[:m:m]
		c.lat = ws.rttRow(a.Source)[:m:m]
		c.upTo = m
	}
	return c
}

// Bind resolves a's class now and records it on a as its class hint, so
// that views of a, and of copies of it, skip the memo lookup for as long
// as the hint is trusted (see candClass); a view never trusts it wrongly.
// Callers that view the same app shapes every batch bind one template per
// shape and copy it.
func (ws *Workspace) Bind(a *App) { a.class = ws.candClassOf(a) }

// Problem assembles a solver-ready view of one batch against the current
// workspace state. Nothing is copied per cell: Demand[i], PowerW[i], and
// Compatible[i] are app i's (model, rate) class rows, LatencyMs[i] is its
// source's RTT row, and Problem.Candidates carries the shortlists so both
// backends skip the dense server axis. Every cell holds its true value,
// so Problem.Feasible is exact on and off the shortlists, and an app's
// candidates are exactly its Compatible, within-SLO cells. The returned
// problem snapshots the server state: a later CommitAssignment does not
// mutate it.
//
// Rows are shared between the apps of a class and with the workspace's
// memo tables: they are read-only — nothing may write through a view. The
// view's shell (the Problem struct, its row headers, Candidates, and
// Servers snapshot) lives in reused workspace buffers and is valid until
// the next Problem call on this workspace; callers that retain a batch's
// problem across batches must copy what they need. The rows themselves
// are append-only, so a view stays intact across AddServers and memo
// resets.
func (ws *Workspace) Problem(apps []App) (*Problem, error) {
	for i := range apps {
		// NaN fails every comparison, so this tests for the good range: a
		// NaN demand would fit everything it is subtracted from.
		if r := apps[i].RatePerSec; !(r >= 0) || math.IsInf(r, 1) {
			return nil, fmt.Errorf("placement: app %s has rate %g, want finite and non-negative", apps[i].ID, r)
		}
	}
	p := ws.scratchProblem(apps)
	reps := ws.repBuf[:0]
	for i := range apps {
		c := ws.candClassOf(&apps[i])
		if c.seen != ws.viewGen {
			c.seen, c.id = ws.viewGen, int32(len(reps))
			reps = append(reps, int32(i))
		}
		p.classOf[i] = c.id
		p.Candidates[i] = c.idx
		p.Demand[i], p.PowerW[i], p.Compatible[i] = c.demand, c.power, c.ok
		p.LatencyMs[i] = c.lat
	}
	ws.repBuf, p.classRep = reps, reps
	return p, nil
}

// scratchProblem returns the reusable problem shell sized for the batch:
// row headers only, every one of which Problem overwrites.
func (ws *Workspace) scratchProblem(apps []App) *Problem {
	n := len(apps)
	ws.rowsD, ws.rowsP = grow(ws.rowsD, n), grow(ws.rowsP, n)
	ws.rowsL, ws.rowsC = grow(ws.rowsL, n), grow(ws.rowsC, n)
	ws.candBuf, ws.classBuf = grow(ws.candBuf, n), grow(ws.classBuf, n)
	ws.serversBuf = append(ws.serversBuf[:0], ws.servers...)
	ws.viewGen++
	ws.view = Problem{
		Apps:       apps,
		Servers:    ws.serversBuf,
		Demand:     ws.rowsD,
		PowerW:     ws.rowsP,
		LatencyMs:  ws.rowsL,
		Compatible: ws.rowsC,
		Candidates: ws.candBuf,
		classOf:    ws.classBuf,
		gen:        ws.viewGen,
	}
	return &ws.view
}

// SolveStats is the live solver telemetry a workspace-backed layer
// exposes (the orchestrator serves it at /api/v1/placement).
type SolveStats struct {
	// Backend names the solver that produced the last assignment.
	Backend string `json:"backend"`
	// SolveMs and TotalSolveMs mirror Result.SolveTime/TotalSolveTime.
	SolveMs      float64 `json:"solve_ms"`
	TotalSolveMs float64 `json:"total_solve_ms"`
	// Apps and Servers size the last solved instance.
	Apps    int `json:"apps"`
	Servers int `json:"servers"`
	// Placed and Unplaced count the last batch's outcomes.
	Placed   int `json:"placed"`
	Unplaced int `json:"unplaced"`
	// Candidate shortlist sizes across the batch's apps: the compatible,
	// within-SLO servers of each (Problem.Candidates).
	CandidatesMin  int     `json:"candidates_min"`
	CandidatesMean float64 `json:"candidates_mean"`
	CandidatesMax  int     `json:"candidates_max"`
	// BnBNodes mirrors Result.BnBNodes: 0 when the exact backend's
	// certificate closed the batch without branch and bound.
	BnBNodes int `json:"bnb_nodes"`
}

// Stats summarizes a placement result against the problem it solved.
func (r *Result) Stats(p *Problem) SolveStats {
	st := SolveStats{
		Backend:      r.Backend,
		SolveMs:      float64(r.SolveTime) / float64(time.Millisecond),
		TotalSolveMs: float64(r.TotalSolveTime) / float64(time.Millisecond),
		Apps:         len(p.Apps),
		Servers:      len(p.Servers),
		Placed:       r.Metrics.Placed,
		Unplaced:     r.Metrics.Unplaced,
		BnBNodes:     r.BnBNodes,
	}
	st.CandidatesMin, st.CandidatesMean, st.CandidatesMax = p.CandidateStats()
	return st
}

// CandidateStats reports the min/mean/max candidate-set size over the
// problem's apps.
func (p *Problem) CandidateStats() (min int, mean float64, max int) {
	if len(p.Apps) == 0 {
		return 0, 0, 0
	}
	min = math.MaxInt
	var sum int
	for i := range p.Apps {
		n := len(p.Candidates[i])
		sum += n
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	return min, float64(sum) / float64(len(p.Apps)), max
}
