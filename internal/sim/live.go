package sim

import (
	"slices"

	"repro/internal/energy"
	"repro/internal/placement"
	"repro/internal/router"
)

// fifo is a queue whose front is popped by advancing an offset: its items
// are buf[head:]. The items move down in place once the head passes half
// the buffer, or a quarter of it when a push finds the buffer full. So
// popping a prefix moves nothing else, an item moves at most three times
// per pop on average, and the buffer grows only while less than a
// quarter of it has been popped.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) items() []T { return q.buf[q.head:] }
func (q *fifo[T]) len() int   { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 4*q.head >= len(q.buf) {
		q.compact()
	}
	q.buf = append(q.buf, v)
}

// drop pops the first n items.
func (q *fifo[T]) drop(n int) {
	q.head += n
	if 2*q.head > len(q.buf) {
		q.compact()
	}
}

// truncate keeps the first n items.
func (q *fifo[T]) truncate(n int) {
	q.buf = q.buf[:q.head+n]
	if 2*q.head > len(q.buf) {
		q.compact()
	}
}

// compact moves the items to the front of the buffer.
func (q *fifo[T]) compact() {
	q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
	q.head = 0
}

// liveTable holds the committed applications in placement order (items).
// Each app carries a sequence number, increasing along the table, and a
// late flag, set when an app indexed before it expires after it. Apps
// are placed with one lifetime, so only an evicted app re-placed with its
// original expiry is late, or an app of a restored table; every other
// app expires no earlier than any app before it. The expired apps are
// therefore a prefix of the table while no app is late, and otherwise
// that prefix plus late apps (stragglers).
type liveTable struct {
	fifo[liveApp]
	seq        int // the next app's sequence number
	maxExpires int // the latest expiry indexed
	late       int // late apps in the table
}

// liveVisits counts, for tests, the live rows departures visited and the
// pool cells trafficReplicas visited.
type liveVisits struct{ rows, cells int }

// stepDepartures releases the apps whose lifetime ended before this
// epoch, keeping the survivors' order: it pops the expired prefix and,
// while an app is late, scans for stragglers up to the last late app.
func (e *Engine) stepDepartures(epoch int) {
	live := e.live.items()
	k := 0
	for k < len(live) && live[k].expires <= epoch {
		e.depart(&live[k], true)
		k++
	}
	e.live.drop(k)
	e.visits.rows += k
	if e.live.late == 0 {
		return
	}
	live = e.live.items()
	n, passed := 0, 0 // survivors kept, late apps passed
	for i := range live {
		e.visits.rows++
		a := &live[i]
		if a.expires <= epoch {
			e.depart(a, false)
			continue
		}
		if n != i {
			live[n] = *a
		} else if passed == e.live.late {
			// Nothing departed and no late app is left: the rest expire
			// no earlier than this app, which lives.
			n = len(live)
			break
		}
		if a.late {
			passed++
		}
		n++
	}
	e.live.truncate(n)
}

// depart releases a departing app, writes its row through and takes it
// out of the replica pool: front marks an app at the head of the table,
// which heads its cell too.
func (e *Engine) depart(a *liveApp, front bool) {
	e.release(a)
	e.syncRow(a.srv)
	e.unpool(a, front)
}

// unpool takes a leaving app out of its pool cell and the late count.
func (e *Engine) unpool(a *liveApp, front bool) {
	c := e.pool.at(e.cell(a))
	if front {
		c.drop(1)
	} else {
		seqs := c.items()
		i := slices.Index(seqs, a.seq)
		c.truncate(len(slices.Delete(seqs, i, i+1)))
	}
	if a.late {
		e.live.late--
	}
}

// admit appends a placed app to the live table and indexes it.
func (e *Engine) admit(a liveApp) {
	e.live.push(a)
	live := e.live.items()
	e.index(&live[len(live)-1])
}

// index numbers an app appended to the table, flags it late when an app
// indexed before it expires later, and adds it to its pool cell.
func (e *Engine) index(a *liveApp) {
	t := &e.live
	a.seq = t.seq
	t.seq++
	a.late = a.expires < t.maxExpires
	if a.late {
		t.late++
	} else {
		t.maxExpires = a.expires
	}
	e.pool.add(e.cell(a), a.seq)
}

// indexLive re-indexes the whole live table from empty pool cells: after
// a restore, which builds the table, and after a redeploy, which moves
// apps between cells.
func (e *Engine) indexLive() {
	e.live.seq, e.live.maxExpires, e.live.late = 0, 0, 0
	for _, id := range e.pool.order {
		e.pool.at(id).truncate(0)
	}
	live := e.live.items()
	for i := range live {
		e.index(&live[i])
	}
}

// replicaPool turns the live applications into the router's replica set.
// Applications sharing a (site, model, device) triple are one replica;
// the triple is addressed as cells[model][pair], with models and (site,
// device) pairs interned to dense indices when they enter the engine.
// Each cell holds the sequence numbers of its live apps in table order,
// kept at every edit of the live table (admit, depart, Evict,
// indexLive), so the pool costs what changed, not a walk of the table.
type replicaPool struct {
	modelIdx map[string]int
	models   []string // by dense index
	// pairs lists the distinct (site, device) pairs; siteServer.pair
	// indexes it. A pair is not a server: a scale-out adds servers to an
	// existing pair, and their applications must keep pooling with it.
	pairs []poolPair
	cells [][]poolCell // [model][pair]
	// order lists the cells that hold an app, and may list cells that
	// emptied since trafficReplicas last dropped them.
	order []cellID
	// apps holds the arrival and redeploy app templates (see
	// Engine.appTemplate).
	apps []placement.App
	buf  []router.Replica
}

// poolPair is one (site, device) hosting class.
type poolPair struct {
	site   int
	device string
}

// cellID addresses one (model, pair) cell.
type cellID struct{ mi, pair int }

// poolCell is one (model, pair) replica class: the sequence numbers of
// its live apps, its capacity-free prototype, built on first use, and
// whether order lists it.
type poolCell struct {
	fifo[int]
	proto         router.Replica
	built, listed bool
}

func (p *replicaPool) at(id cellID) *poolCell { return &p.cells[id.mi][id.pair] }

// cell returns a live app's pool cell: its model and its server's pair.
func (e *Engine) cell(a *liveApp) cellID { return cellID{a.mi, e.servers[a.srv].pair} }

// add appends an app's sequence number to its cell, listing the cell.
func (p *replicaPool) add(id cellID, seq int) {
	c := p.at(id)
	c.push(seq)
	if !c.listed {
		c.listed = true
		p.order = append(p.order, id)
	}
}

// model returns the dense index of a model name, interning a new one.
// Every model of the config is interned at construction, so the append
// runs again only for a model a coordinator injects from outside it.
func (p *replicaPool) model(name string) int {
	mi, ok := p.modelIdx[name]
	if !ok {
		mi = len(p.cells)
		p.modelIdx[name] = mi
		p.models = append(p.models, name)
		p.cells = append(p.cells, make([]poolCell, len(p.pairs)))
	}
	return mi
}

// pair returns the dense index of a (site, device) pair, interning a new
// one. It runs once per server created (constructor, scale-out, restore).
func (p *replicaPool) pair(site int, device string) int {
	k := poolPair{site: site, device: device}
	for i, have := range p.pairs {
		if have == k {
			return i
		}
	}
	p.pairs = append(p.pairs, k)
	for mi := range p.cells {
		p.cells[mi] = append(p.cells[mi], poolCell{})
	}
	return len(p.pairs) - 1
}

// trafficReplicas views the live applications as the routing replica
// pool. Apps sharing a (site, model, device) triple are interchangeable
// to the router — same location, latency, service time, and per-request
// energy — so they aggregate into one replica of their summed capacity,
// in first-occurrence order over the live table (the router's tie-break
// order, which snapshots preserve). Telemetry stays keyed by hosting
// city, so per-replica aggregates stay bounded over year runs.
//
// The order is the cells' by their first live app's sequence number: the
// listed cells are nearly in it already (a cell whose first app left
// moves back, one that fills ranks last), so an insertion sort restores
// it. The pair, not the server index, keys a cell — a scale-out puts
// several servers on one pair, and keying by server would split their
// replica.
func (e *Engine) trafficReplicas() ([]router.Replica, error) {
	p := &e.pool
	e.visits.cells += len(p.order)
	order := p.order[:0]
	for _, id := range p.order {
		if c := p.at(id); c.len() > 0 {
			order = append(order, id)
		} else {
			c.listed = false
		}
	}
	for i := 1; i < len(order); i++ {
		id := order[i]
		first := p.at(id).items()[0]
		j := i
		for ; j > 0 && p.at(order[j-1]).items()[0] > first; j-- {
			order[j] = order[j-1]
		}
		order[j] = id
	}
	p.order = order
	p.buf = p.buf[:0]
	for _, id := range order {
		c := p.at(id)
		if !c.built {
			pp := p.pairs[id.pair]
			prof, err := energy.ProfileFor(p.models[id.mi], pp.device)
			if err != nil {
				return nil, err
			}
			site := e.sites[pp.site]
			c.proto = router.Replica{
				ID:            site.City,
				Loc:           pp.site,
				ZoneID:        site.ZoneID,
				ServiceMs:     prof.InferenceMs,
				EnergyPerReqJ: prof.EnergyPerRequestJ(),
			}
			c.built = true
		}
		r := c.proto
		r.CapacityRPS = float64(c.len()) * appRatePerSec
		p.buf = append(p.buf, r)
	}
	return p.buf, nil
}
