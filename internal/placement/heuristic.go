package placement

import (
	"math"
	"sync"

	"repro/internal/cluster"
)

// HeuristicSolver is the scalable backend: cost-greedy construction
// followed by steepest-descent local search (single-app moves). It handles
// CDN-scale instances (hundreds of servers, hundreds of apps per batch) in
// milliseconds; its gap to the exact optimum is stated and pinned per
// policy by TestExactMatchesBruteForce's heuristic leg.
//
// The search is flattened: each solve memoizes policy costs into flat rows
// shared across identical app classes, and answers every capacity test
// from one fit table (see fitTable) that tests each distinct demand row
// against each server once per change of the server's free capacity, not
// once per (class, candidate) scan. After pass 0 only apps whose
// candidate servers changed in a scan-visible way are re-scanned (a move
// touches, through the server -> class reverse adjacency, only the classes
// whose demand row's fit flipped on the server, or every adjacent class of
// a server that starts off), and construct and local search scan each
// class state once, not once per app of the class (classMemo); a touch
// updates the class's floor in place where it can, so most touches cost
// no rescan. The cost-row build also records each class's pick at the
// start state (costMemo.seed) when construct will run, so construct scans
// a class only when its pick stops fitting or is retired. A cold solve
// whose construct retired no pick and placed every app is a local-search
// fixpoint (see construct) and skips local search. Every skip is provably
// a no-op scan and every table read answers what the Fits call it stands
// for would: assignments are byte-identical to a plain per-app sweep that
// re-derives every cost through the Policy and tests every pair's
// capacity itself (the test oracle in oracle_test.go). Each solve stands
// alone; nothing but buffer capacity carries over to the next.
//
// Two of these mechanisms were each measured against their removal on
// redeploy_churn's shape (sim's TestFitWorkCounted counts them) and kept:
//   - floors updated in place (floor.insert/holds): 8 470 touches (cold)
//     and 22 697 (warm) update a floor in place, and 8 680 and 19 905
//     drop one, leaving 15 490 and 26 694 floor rescans where there would
//     be 19 313 and 36 065; without them the redeploy_churn workload
//     fell from 3 893 to 3 719 epochs/s (medians of 5 alternating pairs,
//     1 won by the removal);
//   - the warm seed's slotTable and the stored slots (revSlot): 135 374
//     (cold) and 234 995 (warm) slot lookups are table reads; replacing
//     both with binary search took it from 3 768 to 3 353 epochs/s
//     (8 alternating pairs, none won by the removal).
//
// The solver owns reusable search scratch (capacity vectors, assignment
// arrays, validation sets, memoized cost rows, the per-class scan memos),
// so repeated solves allocate nothing in steady state. A mutex serializes
// solves; concurrent callers should prefer one solver per goroutine.
type HeuristicSolver struct {
	// SkipValidate skips the per-solve structural validation of the
	// problem (unique IDs, matrix shapes, the class stamp and ascending
	// candidate lists).
	// Owners of trusted problem sources — the sim engine solving
	// workspace-assembled views with generated IDs — set it so the
	// per-epoch hot loop pays no map-building; external entry points
	// (Placer) keep full validation at their boundary.
	SkipValidate bool

	mu  sync.Mutex
	st  state
	ids map[string]bool
	sid map[string]bool
	// order/options/bucket are the greedy-construction ordering scratch.
	order   []int
	options []int
	bucket  []int
	// memo holds the memoized cost rows and reverse adjacency.
	memo costMemo
	// cm lets a solve scan each class state once rather than once per
	// app.
	cm classMemo
	// scans counts the solver's work, for tests: construct's scans, floor
	// rescans (search) and floors updated in place or dropped by a touch,
	// local search's verdicts, the warm seed's slot lookups, and the
	// capacity tests (Resources.Fits evaluations) the fit table made.
	scans struct {
		construct, search, inplace, dropped int
		fallback, stay, move, retry, stuck  int
		lookup, fits                        int
	}
}

// NewHeuristicSolver returns a solver with full input validation.
func NewHeuristicSolver() *HeuristicSolver { return &HeuristicSolver{} }

// maxPasses caps local-search sweeps.
const maxPasses = 8

// grow resizes b to exactly n elements, reusing capacity when possible
// and allocating with headroom otherwise: a batch that creeps up solve
// after solve (a filling redeploy) must not reallocate every time.
// Contents are unspecified; callers overwrite every element.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n, n+n/4)
	}
	return b[:n]
}

// costMemo is the flattened view of one (problem, policy) pair: every
// policy cost the local search can ask for, resolved once per solve into
// flat arrays laid out per app class, the solve's fit table, and the
// server -> classes reverse adjacency the dirty-app queue marks through.
//
// The class (the view's stamp, Problem.classOf) is the unit of structure:
// its apps share one candidate list, one cost row and one demand row, so
// a solve evaluates one row per class.
type costMemo struct {
	// cls and rep are the view's class stamp (Problem.classOf/classRep).
	cls []int32
	rep []int32

	// cand[c] is class c's gated list (its slots): its representative's
	// Candidates row, every server of which is compatible and within the
	// SLO (Problem.Candidates' contract), so only capacity is left to test.
	cand [][]int
	// off[c] is class c's base slot in row.
	off []int
	// row[slot] is pol.PairCost for the slot's (class, server) pair.
	row []float64
	// dem[c] is class c's demand row in fit: its representative's Demand
	// row, which every member shares.
	dem []int32
	// fit is the solve's fit table, filled from Servers[j].Free.
	fit fitTable
	// opts[c] counts class c's slots that fit their server's free
	// capacity at the start of the solve: construct's option count.
	opts []int
	// seed[c] is the slot construct's scan of class c returns at the
	// start of the solve (see HeuristicSolver.pickCheapest), or -1.
	// build fills opts and seed only for a solve that constructs.
	seed []int
	// slotAt[c*m+j] is server j's slot in class c's gated list, or -1:
	// where the warm seed reads its slots, filled only by warm solves
	// (slotTable).
	slotAt []int32
	// act[j] is pol.ActivationCost(p, j), set for servers that start off.
	act []float64

	// adj marks the reverse adjacency below built for the current
	// structure. It is only read when a solve moves an app, so ensureAdj
	// builds it on first such use rather than with the structure: most
	// solves of a no-move workload never pay for it.
	adj bool

	// revOff/revCls is the CSR reverse adjacency: revCls[revOff[j]:
	// revOff[j+1]] lists the classes whose gated lists contain server j,
	// and revSlot the same range's slots (server j's index in each list).
	// The dirty-app queue marks through it.
	revOff  []int
	revCls  []int32
	revSlot []int32
	cursor  []int // CSR fill scratch
}

// fitTable is one solve's fit table: bit[d*m+j] reports whether demand
// row d fits server j's current free capacity. The rows are the classes'
// Demand rows deduplicated by identity (costMemo.dem maps a class to its
// row): every class of one (model, rate) shares one workspace row. build
// fills the table, state.place and state.unplace refit the server they
// change, and every capacity test of the search reads it. On
// faults_storm's shape that is 158 Fits evaluations per solve, where
// testing each (class, candidate) made 2 509 (TestFitWorkCounted).
type fitTable struct {
	m         int
	rows      [][]cluster.Resources
	bit, flip []bool // flip: touchMoved's per-row scratch
	evals     int    // Resources.Fits evaluations, for tests
}

// of returns row d's bits, one per server.
func (t *fitTable) of(d int32) []bool { return t.bit[int(d)*t.m : (int(d)+1)*t.m] }

// refit recomputes server j's bits against its free capacity free.
func (t *fitTable) refit(j int, free cluster.Resources) {
	for d, row := range t.rows {
		t.bit[d*t.m+j] = row[j].Fits(free)
	}
	t.evals += len(t.rows)
}

// sameRow reports whether a and b are one row. Rows with no cell (a view
// with no servers) are never indexed: they are all one row.
func sameRow(a, b []cluster.Resources) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// build lays the memo out for (p, pol), reusing the buffers' capacity.
// cold reports that construct will run: only then are its option counts
// and seeds (opts, seed) filled.
func (mm *costMemo) build(p *Problem, pol Policy, cold bool) {
	m := len(p.Servers)
	mm.cls, mm.rep = p.classOf, p.classRep
	nc := len(mm.rep)

	mm.cand, mm.off, mm.dem = grow(mm.cand, nc), grow(mm.off, nc), grow(mm.dem, nc)
	t := &mm.fit
	t.m, t.rows = m, t.rows[:0]
	total := 0
	for c, r := range mm.rep {
		mm.cand[c] = p.Candidates[r]
		mm.off[c], total = total, total+len(mm.cand[c])
		row, d := p.Demand[r], 0
		for d < len(t.rows) && !sameRow(t.rows[d], row) {
			d++
		}
		if d == len(t.rows) {
			t.rows = append(t.rows, row)
		}
		mm.dem[c] = int32(d)
	}
	mm.row = grow(mm.row, total)
	// Filled a row at a time, not a server at a time as refit goes: on a
	// view where every app has its own rate, a server's column strides
	// across ~100 rows and the fill cost more than the scans it saves.
	t.bit, t.flip = grow(t.bit, len(t.rows)*m), grow(t.flip, len(t.rows))
	for d, row := range t.rows {
		bits := t.bit[d*m : (d+1)*m]
		for j := range bits {
			bits[j] = row[j].Fits(p.Servers[j].Free)
		}
	}
	t.evals = len(t.rows) * m
	mm.act = grow(mm.act, m)
	for j := range p.Servers {
		if !p.Servers[j].PoweredOn {
			mm.act[j] = pol.ActivationCost(p, j)
		}
	}
	if cold {
		mm.opts = grow(mm.opts, nc)
		mm.seed = grow(mm.seed, nc)
	}
	for c, r := range mm.rep {
		i, cand := int(r), mm.cand[c]
		row := mm.row[mm.off[c] : mm.off[c]+len(cand)]
		for k, j := range cand {
			row[k] = pol.PairCost(p, i, j)
		}
		if !cold {
			continue
		}
		// Construct's option count and its pick at the start state, in
		// a second pass: with no policy call to spill registers around,
		// it costs less than folding it into the pass above.
		fit := mm.fit.of(mm.dem[c])
		opts, best, bestCost := 0, -1, math.Inf(1)
		for k, j := range cand {
			if !fit[j] {
				continue
			}
			opts++
			cost := row[k]
			if !p.Servers[j].PoweredOn {
				cost += mm.act[j]
			}
			if cost < bestCost {
				best, bestCost = k, cost
			}
		}
		mm.opts[c], mm.seed[c] = opts, best
	}
	mm.adj = false
}

// slotTable fills slotAt for the current structure and returns it: the
// warm seed's server -> slot map, one row of m per class, so seeding an
// app costs one read instead of a search of its gated list.
func (mm *costMemo) slotTable() []int32 {
	m := mm.fit.m
	mm.slotAt = grow(mm.slotAt, len(mm.cand)*m)
	for c, cand := range mm.cand {
		row := mm.slotAt[c*m : (c+1)*m]
		for j := range row {
			row[j] = -1
		}
		for k, j := range cand {
			row[j] = int32(k)
		}
	}
	return mm.slotAt
}

// ensureAdj builds the server -> classes reverse adjacency for the
// current structure, once: touchMoved reads it, so it calls ensureAdj
// first.
func (mm *costMemo) ensureAdj() {
	if mm.adj {
		return
	}
	m := mm.fit.m
	mm.revOff = grow(mm.revOff, m+1)
	clear(mm.revOff)
	for _, cand := range mm.cand {
		for _, j := range cand {
			mm.revOff[j+1]++
		}
	}
	for j := 0; j < m; j++ {
		mm.revOff[j+1] += mm.revOff[j]
	}
	n := mm.revOff[m]
	mm.revCls, mm.revSlot = grow(mm.revCls, n), grow(mm.revSlot, n)
	mm.cursor = grow(mm.cursor, m)
	copy(mm.cursor, mm.revOff[:m])
	for c, cand := range mm.cand {
		for k, j := range cand {
			e := mm.cursor[j]
			mm.cursor[j]++
			mm.revCls[e], mm.revSlot[e] = int32(c), int32(k)
		}
	}
	mm.adj = true
}

// classMemo lets a solve skip scans that a same-class app has just made.
// Apps of one class read the same gated list, cost row and demand row, so
// a scan's result depends only on the class, the app's current server,
// and the capacity and power state of the class's candidates. Two memos
// key on that, and each skips only a scan that provably returns what the
// recorded scan returned:
//
//   - construct's pick: pick[c] is class c's last scan result (a slot,
//     or -1 when nothing fit), seeded with the scan of the solve's start
//     state that the cost-row build already made (costMemo.seed). During
//     construct free capacity only shrinks (placed demands are
//     non-negative; workspace demands always are) and costs are constant
//     but for the activation term of a server that powers on. So until a
//     power-on the fit set only shrinks, and the first cheapest server of
//     a shrunk set that still contains the pick is the pick: one fit bit
//     of the pick replaces the scan, and "nothing fit" stays true. A
//     power-on (only servers that start off have one) or a demand that is
//     not non-negative (see shrinks) retires every pick, seeds included.
//   - local search's floor: floor[c] summarizes class c's fit set and
//     costs (see floor), stamped with the class's touch stamp at the time
//     it was made. A touch (see touchMoved) stamps every class a scan
//     could see change — a class whose demand row's fit flipped on the
//     touched server; every adjacent class of a server that starts off —
//     with its scan position, and stamps only grow within a solve, so
//     this is the argument the dirty queue already rests on. A touch
//     also keeps the class's floor equal to the scan it summarizes: a
//     server that was on at the start costs the same all solve, so a slot
//     that starts to fit there is inserted in place and one that stops
//     fitting removes nothing the floor holds unless it is the floor's
//     first slot or an entry; those, and every class a whole-server touch
//     stamps, drop the floor. A kept floor is restamped with the
//     touch, a dropped one cleared: two touches of one move share a scan
//     position, so stamp inequality alone would not retire it. So while
//     the floor's stamp is the class's, every member's verdict — whatever
//     server it sits on — is read off it (floor.move) instead of a scan
//     of its own.
//
// Entries carry the generation they were made in: SolveInto advances gen
// every solve and construct on every retiring placement, so no solve
// clears anything — a 6-app solve pays for its classes, not for the last
// large batch. A construct that never retires is the certificate that
// lets a cold solve skip local search (see construct).
type classMemo struct {
	gen   uint64
	pick  []stamped // per class: v is the picked slot or -1
	floor []floor   // per class
}

// floor summarizes one class's gated list at one class stamp: the first
// slot that fits, and the three cheapest such slots by (cost, slot), a
// server that is off costing its activation too. Only a strictly lower
// cost displaces an entry (equal costs keep slot order), and a NaN cost,
// which no scan ever prefers, never enters. scan derives it in one
// index-order pass; insert and holds keep it equal to that pass as single
// slots start or stop fitting (see classMemo).
type floor struct {
	at    stamped // (generation, class stamp) of the pass; zero when dropped
	first int     // first fitting slot, or -1
	n     int     // entries in slot and cost
	slot  [3]int
	cost  [3]float64
}

// scan refills f at stamp at from member i's rows (a class shares them).
func (f *floor) scan(st *state, mm *costMemo, i int, at stamped) {
	c := mm.cls[i]
	base, cand, fit := mm.off[c], mm.cand[c], mm.fit.of(mm.dem[c])
	f.at, f.first, f.n = at, -1, 0
	for k, j := range cand {
		if !fit[j] {
			continue
		}
		if f.first < 0 {
			f.first = k
		}
		cost := mm.row[base+k]
		if !st.on[j] {
			cost += mm.act[j]
		}
		e := f.n
		for e > 0 && cost < f.cost[e-1] {
			e--
		}
		if e == len(f.slot) || math.IsNaN(cost) {
			continue
		}
		f.n = min(f.n+1, len(f.slot))
		copy(f.slot[e+1:f.n], f.slot[e:])
		copy(f.cost[e+1:f.n], f.cost[e:])
		f.slot[e], f.cost[e] = k, cost
	}
}

// insert adds slot k, which has started to fit at cost, as scan would
// have ranked it: it becomes first when it precedes the first slot, and
// enters the entries after every entry of lower cost, or of equal cost
// and lower slot, unless it is NaN or ranks past the third.
func (f *floor) insert(k int, cost float64) {
	if f.first < 0 || k < f.first {
		f.first = k
	}
	if math.IsNaN(cost) {
		return
	}
	e := f.n
	for e > 0 && (cost < f.cost[e-1] || cost == f.cost[e-1] && k < f.slot[e-1]) {
		e--
	}
	if e == len(f.slot) {
		return
	}
	f.n = min(f.n+1, len(f.slot))
	copy(f.slot[e+1:f.n], f.slot[e:])
	copy(f.cost[e+1:f.n], f.cost[e:])
	f.slot[e], f.cost[e] = k, cost
}

// holds reports whether f names slot k: as its first slot or an entry.
// A slot that stops fitting changes f exactly when f holds it.
func (f *floor) holds(k int) bool {
	if k == f.first {
		return true
	}
	for _, s := range f.slot[:f.n] {
		if s == k {
			return true
		}
	}
	return false
}

// stay and nearTie are floor.move's verdicts besides a slot to move to.
const stay, nearTie = -1, -2

// move returns the slot local search's index-order scan moves an app on
// slot cur at cost curCost to, stay when it moves nothing, or nearTie when
// two candidates within the tie band leave it to the scan. With m and r
// the two cheapest slots other than cur, the scan moves exactly when
// c_m < curCost-1e-12, and it ends on m when no other slot passes that
// test (r does not; nothing else is cheaper than r) or m beats every
// other slot by more than the band: rounding is monotone, so c_x >= c_r
// gives fl(c_x-1e-12) >= fl(c_r-1e-12) > c_m.
func (f *floor) move(cur int, curCost float64) int {
	m := 0
	if m < f.n && f.slot[m] == cur {
		m++
	}
	r := m + 1
	if r < f.n && f.slot[r] == cur {
		r++
	}
	thr := curCost - 1e-12
	switch {
	case m >= f.n || !(f.cost[m] < thr):
		return stay
	case r >= f.n || !(f.cost[r] < thr) || f.cost[m] < f.cost[r]-1e-12:
		return f.slot[m]
	}
	return nearTie
}

// stamped is one generation-stamped memo entry.
type stamped struct {
	gen uint64
	v   int64
}

// reset starts a new generation sized for mm's classes.
func (cm *classMemo) reset(mm *costMemo) {
	cm.gen++
	cm.pick = grow(cm.pick, len(mm.rep))
	cm.floor = grow(cm.floor, len(mm.rep))
}

// shrinks reports whether subtracting d can only shrink a capacity vector:
// every component is non-negative (NaN is not).
func shrinks(d cluster.Resources) bool {
	for _, v := range d {
		if !(v >= 0) {
			return false
		}
	}
	return true
}

// state tracks remaining capacity and power decisions during the search.
type state struct {
	p        *Problem
	free     []cluster.Resources
	on       []bool
	assigned []int // app -> server or -1
	slot     []int // app -> its server's index in its gated list, or -1 when unplaced
	loads    []int // number of apps per server
	// fit is the solve's fit table (costMemo.fit), kept current with free.
	fit *fitTable

	// mark and stamp are the dirty-app work queue. mark[i] is the last
	// pass app i must still be scanned in on its own account (0 at init,
	// so pass 0 scans every app; bumped by a retry placement); stamp[c]
	// is the scan position (pass<<32 | app index + 1) of the latest touch
	// on class c, which dirties every member at once. An app is skipped in pass p when
	// neither makes it due (see dirty), which is provably a no-op scan: no
	// server in its candidate list changed in a way its scan can observe
	// since its last scan.
	mark  []int32
	stamp []int64
}

// noStamp is a class stamp that makes no member due in any pass.
const noStamp = -1 << 32

// init points the state at a problem and at mm, its memo built for it
// (one class and fit table per solve), reusing the slices' capacity:
// nothing placed and every app due in pass 0.
func (st *state) init(p *Problem, mm *costMemo) {
	st.p, st.fit = p, &mm.fit
	n, m, nc := len(p.Apps), len(p.Servers), len(mm.rep)
	st.free = grow(st.free, m)
	st.on = grow(st.on, m)
	st.loads = grow(st.loads, m)
	st.assigned = grow(st.assigned, n)
	st.slot = grow(st.slot, n)
	st.mark = grow(st.mark, n)
	st.stamp = grow(st.stamp, nc)
	for j := range p.Servers {
		st.free[j] = p.Servers[j].Free
		st.on[j] = p.Servers[j].PoweredOn
		st.loads[j] = 0
	}
	for i := range st.assigned {
		st.assigned[i], st.slot[i] = -1, -1
		st.mark[i] = 0
	}
	for c := range st.stamp {
		st.stamp[c] = noStamp
	}
}

// place commits app i to server j, slot k of its gated list (-1 for a
// caller that keeps no slots).
func (st *state) place(i, j, k int) {
	st.assigned[i], st.slot[i] = j, k
	st.free[j] = st.free[j].Sub(st.p.Demand[i][j])
	st.fit.refit(j, st.free[j])
	st.loads[j]++
	st.on[j] = true
}

// unplace removes app i from its server.
func (st *state) unplace(i int) {
	j := st.assigned[i]
	if j < 0 {
		return
	}
	st.free[j] = st.free[j].Add(st.p.Demand[i][j])
	st.fit.refit(j, st.free[j])
	st.loads[j]--
	st.assigned[i], st.slot[i] = -1, -1
	// A server that was off before the batch and is now empty returns
	// to "not yet activated".
	if st.loads[j] == 0 && !st.p.Servers[j].PoweredOn {
		st.on[j] = false
	}
}

// touch stamps class c with scan position at: every member later in this
// pass is due in it, every earlier one (and the mover) in the next. Of two
// touches the later position makes every member due no earlier than the
// other does, so keeping the maximum loses nothing.
func (st *state) touch(c int32, at int64) {
	if st.stamp[c] < at {
		st.stamp[c] = at
	}
}

// dirty reports whether app i must be scanned in the given pass: on its
// own mark, or because its class was touched — in an earlier pass from a
// position at or past i (due the pass after), or from a position before i
// (due that same pass).
func (st *state) dirty(mm *costMemo, i int, pass int32) bool {
	if st.mark[i] >= pass {
		return true
	}
	at := st.stamp[mm.cls[i]]
	due := int32(at >> 32)
	if int64(i) < at&math.MaxUint32 {
		due++
	}
	return due >= pass
}

// touchMoved is touch filtered by observability: after app i changed
// server j's occupancy (before -> st.free[j]) at its scan position in the
// given pass, it stamps the adjacent classes a scan could see change and
// keeps their floors equal to a rescan (see classMemo). A server that
// starts off has an activation state that enters cost and credit terms,
// so every change there stamps every adjacent class and drops its floor.
// A server that was on at the start stays on for the whole solve, so a
// capacity shift there is visible to class c only when c's demand row
// flips between fitting and not: each distinct row's fit before the
// change is tested once against its bit, and each adjacent class reads
// its row's flip.
func (s *HeuristicSolver) touchMoved(st *state, mm *costMemo, j, i int, pass int32, before cluster.Resources) {
	mm.ensureAdj()
	cm, at := &s.cm, int64(pass)<<32|int64(i+1)
	lo, hi := mm.revOff[j], mm.revOff[j+1]
	if !st.p.Servers[j].PoweredOn {
		for _, c := range mm.revCls[lo:hi] {
			if f := &cm.floor[c]; f.at == (stamped{cm.gen, st.stamp[c]}) {
				f.at = stamped{}
				s.scans.dropped++
			}
			st.touch(c, at)
		}
		return
	}
	t, flipped := &mm.fit, false
	for d, row := range t.rows {
		t.flip[d] = row[j].Fits(before) != t.bit[d*t.m+j]
		flipped = flipped || t.flip[d]
	}
	t.evals += len(t.rows)
	if !flipped {
		return
	}
	for e := lo; e < hi; e++ {
		c := mm.revCls[e]
		d := int(mm.dem[c])
		if !t.flip[d] {
			continue
		}
		f := &cm.floor[c]
		current := f.at == stamped{cm.gen, st.stamp[c]}
		st.touch(c, at)
		if !current {
			continue
		}
		k := int(mm.revSlot[e])
		switch {
		case t.bit[d*t.m+j]:
			f.insert(k, mm.row[mm.off[c]+k])
		case f.holds(k):
			f.at = stamped{}
			s.scans.dropped++
			continue
		}
		f.at.v = st.stamp[c]
		s.scans.inplace++
	}
}

// Solve runs greedy construction + local search over the view's
// candidate shortlists only; the assignment is identical to a scan of
// every server because every skipped server is infeasible. The returned
// assignment owns its slices (it never aliases solver scratch).
func (s *HeuristicSolver) Solve(p *Problem, pol Policy) (*Assignment, error) {
	return solveNew(s, p, pol, nil)
}

// SolveInto is Solve writing the result into dst, reusing dst's slice
// capacity — the allocation-free form for per-epoch solver loops. A nil
// warm runs greedy construction, then local search unless construct
// certified its result a fixpoint of it (see construct). Otherwise warm
// seeds the search instead: every still-feasible (app, server) pair of
// warm is re-placed, then the same local search runs to convergence, which
// is much cheaper than constructing from scratch when little has changed
// between epochs. Only warm.ServerOf is read; power states are re-derived.
// Stale warm entries — indices past the current fleet, or servers the app
// can no longer run on — are skipped, not errors. On error dst is left
// unspecified.
func (s *HeuristicSolver) SolveInto(dst *Assignment, p *Problem, pol Policy, warm *Assignment) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	if !s.SkipValidate {
		if s.ids == nil {
			s.ids = make(map[string]bool, len(p.Apps))
			s.sid = make(map[string]bool, len(p.Servers))
		} else {
			clear(s.ids)
			clear(s.sid)
		}
		if err := p.validateWith(s.ids, s.sid); err != nil {
			return err
		}
	}
	seeded := warm != nil && len(warm.ServerOf) == len(p.Apps)
	mm := &s.memo
	mm.build(p, pol, !seeded)
	s.cm.reset(mm)
	st := &s.st
	st.init(p, mm)

	fixpoint := false
	if seeded {
		// Warm start: re-commit the previous epoch's placements that are
		// still feasible; local search below repairs the rest. A seed on
		// its class's list is compatible and within the SLO, so only its
		// capacity is left to test. A seed off the list is infeasible
		// (Problem.Candidates' contract) and dropped.
		m, slotAt := len(p.Servers), mm.slotTable()
		for i, j := range warm.ServerOf {
			if j < 0 || j >= m {
				continue
			}
			s.scans.lookup++
			c := mm.cls[i]
			if k := int(slotAt[int(c)*m+j]); k >= 0 && mm.fit.of(mm.dem[c])[j] {
				st.place(i, j, k)
			}
		}
	} else {
		fixpoint = s.construct(st, mm)
	}
	if !fixpoint {
		s.localSearch(st, mm)
	}
	s.scans.fits += mm.fit.evals

	dst.ServerOf = append(dst.ServerOf[:0], st.assigned...)
	dst.PowerOn = append(dst.PowerOn[:0], st.on...)
	dst.Unplaced = dst.Unplaced[:0]
	for i, j := range st.assigned {
		if j < 0 {
			dst.Unplaced = append(dst.Unplaced, i)
		}
	}
	if len(dst.Unplaced) == 0 {
		dst.Unplaced = nil
	}
	return nil
}

// orderByCount fills order with the indices of counts sorted ascending by
// count, ties in index order: a stable counting sort, so the permutation
// is the one any stable sort produces. Counts lie in [0, len(bucket)-2].
func orderByCount(order, counts, bucket []int) {
	clear(bucket)
	for _, k := range counts {
		bucket[k+1]++
	}
	for k := 1; k < len(bucket); k++ {
		bucket[k] += bucket[k-1]
	}
	for i, k := range counts {
		order[bucket[k]] = i
		bucket[k]++
	}
}

// construct runs greedy construction: place the most constrained apps
// first (fewest feasible servers), each on its cheapest feasible server.
// This is the classic most-constrained-variable heuristic and avoids
// painting flexible apps into constrained servers.
//
// It reports whether its result is a fixpoint of local search: it is when
// every app was placed and no pick was retired. Without a retirement free
// capacity only shrank and no server powered on, so every slot that fits
// an app now fitted when its pick was made, at the same cost, and the
// pick was the first cheapest of them; the app's server was on from the
// start, so its current cost is its pick's. Local search's pass 0 then
// finds no slot cheaper by more than its tie band (a NaN cost never
// enters a floor, a -Inf pick beats everything), has no unplaced app to
// retry, and returns having moved nothing.
func (s *HeuristicSolver) construct(st *state, mm *costMemo) bool {
	p := st.p
	for c, k := range mm.seed {
		s.cm.pick[c] = stamped{s.cm.gen, int64(k)}
	}
	s.order = grow(s.order, len(p.Apps))
	s.options = grow(s.options, len(p.Apps))
	order, options := s.order, s.options
	for i := range options {
		options[i] = mm.opts[mm.cls[i]]
	}
	s.bucket = grow(s.bucket, len(p.Servers)+2)
	orderByCount(order, options, s.bucket)

	fixpoint := true
	for _, i := range order {
		k := s.pickCheapest(st, mm, i)
		if k < 0 {
			fixpoint = false
			continue
		}
		j := mm.cand[mm.cls[i]][k]
		if !st.on[j] || !shrinks(p.Demand[i][j]) {
			s.cm.gen++ // retire every cached pick (see classMemo)
			fixpoint = false
		}
		st.place(i, j, k)
	}
	return fixpoint
}

// pickCheapest is construct's scan: the slot of app i's first cheapest
// candidate that fits, a server that is off costing its activation too,
// or -1. The class's cached pick — its seed until the first scan — answers
// while it still fits (see classMemo).
func (s *HeuristicSolver) pickCheapest(st *state, mm *costMemo, i int) int {
	cm := &s.cm
	c := mm.cls[i]
	cand, fit := mm.cand[c], mm.fit.of(mm.dem[c])
	if e := cm.pick[c]; e.gen == cm.gen {
		if k := int(e.v); k < 0 || fit[cand[k]] {
			return k
		}
	}
	s.scans.construct++
	best, bestCost := -1, math.Inf(1)
	base := mm.off[c]
	for k, j := range cand {
		if !fit[j] {
			continue
		}
		cost := mm.row[base+k]
		if !st.on[j] {
			cost += mm.act[j]
		}
		if cost < bestCost {
			best, bestCost = k, cost
		}
	}
	cm.pick[c] = stamped{cm.gen, int64(best)}
	return best
}

// localSearch is the steepest-descent loop: pair costs come from the
// memoized rows, and the dirty-app work queue skips every app whose
// candidate servers are untouched (in any scan-visible way) since its last
// scan. The move sequence is identical to a sweep that re-scans every app
// every pass (the test oracle): a skipped scan is one whose inputs — the
// fit thresholds, activation states, and cost rows over the app's
// candidate list, and the app's own placement — are unchanged since a scan
// that moved nothing, and a due app's verdict is read off its class's
// floor, scanning only on a near tie (see classMemo). It stops when a full
// pass moves nothing or after maxPasses passes.
func (s *HeuristicSolver) localSearch(st *state, mm *costMemo) {
	p, cm := st.p, &s.cm
	n := len(p.Apps)
	for pass := 0; pass < maxPasses; pass++ {
		p32 := int32(pass)
		improved := false
		for i := 0; i < n; i++ {
			if !st.dirty(mm, i, p32) {
				continue
			}
			c := mm.cls[i]
			cand, fit := mm.cand[c], mm.fit.of(mm.dem[c])
			base := mm.off[c]
			cur, slot := st.assigned[i], st.slot[i]
			f := &cm.floor[c]
			if at := (stamped{cm.gen, st.stamp[c]}); f.at != at {
				s.scans.search++
				f.scan(st, mm, i, at)
			}
			if cur < 0 {
				if f.first < 0 {
					s.scans.stuck++
					continue
				}
				s.scans.retry++
				j := cand[f.first]
				before := st.free[j]
				st.place(i, j, f.first)
				// The retry took the first feasible server, not the
				// cheapest: the next pass must re-scan i.
				if st.mark[i] <= p32 {
					st.mark[i] = p32 + 1
				}
				s.touchMoved(st, mm, j, i, p32, before)
				improved = true
				continue
			}
			curCost := mm.row[base+slot]
			if !p.Servers[cur].PoweredOn && st.loads[cur] == 1 {
				curCost += mm.act[cur]
			}
			// best is a slot, like slot; the move is to cand[best].
			best, k := slot, f.move(slot, curCost)
			switch k {
			case stay:
				s.scans.stay++
			case nearTie:
				s.scans.fallback++
				bestCost := curCost
				for k, j := range cand {
					if j == cur || !fit[j] {
						continue
					}
					cost := mm.row[base+k]
					if !st.on[j] {
						cost += mm.act[j]
					}
					if cost < bestCost-1e-12 {
						best, bestCost = k, cost
					}
				}
			default:
				s.scans.move++
				best = k
			}
			if best != slot {
				j := cand[best]
				beforeCur, beforeBest := st.free[cur], st.free[j]
				st.unplace(i)
				st.place(i, j, best)
				s.touchMoved(st, mm, cur, i, p32, beforeCur)
				s.touchMoved(st, mm, j, i, p32, beforeBest)
				improved = true
			}
		}
		if !improved {
			return
		}
	}
}
