package shard

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// ExchangeStats aggregates the coordinator's cross-shard traffic.
type ExchangeStats struct {
	// Messages counts deliveries: one per forwarded app and one per
	// barrier at which a shard spilled request volume.
	Messages int `json:"messages"`
	// AppsForwarded counts arrivals shards exported; AppsUndelivered is
	// the subset dropped because the run ended before the next round
	// (they count as neither Placed nor Unplaced).
	AppsForwarded   int `json:"apps_forwarded"`
	AppsUndelivered int `json:"apps_undelivered"`
	// SpillRequests is the total request volume re-routed to neighbor
	// shards after being dropped locally.
	SpillRequests int64 `json:"spill_requests"`
}

// Coordinator drives one engine per shard in lock-step rounds of one
// epoch. All coordination — stepping rounds, draining outboxes,
// delivering to neighbors — happens on the caller's goroutine; worker
// goroutines only ever step disjoint engines inside a round, so the
// state an engine observes is independent of scheduling.
type Coordinator struct {
	cfg     Config
	engines []*sim.Engine
	round   int

	// drops[s] is shard s's TrafficDropped at the last barrier; the
	// per-round delta becomes spill-over volume.
	drops  []int64
	stats  ExchangeStats
	fwdBuf []sim.ForwardedApp // per-barrier scratch, cleared before every use
}

// New plans the partition and builds one engine per shard.
func New(cfg Config, w *sim.World) (*Coordinator, error) {
	specs, err := Plan(cfg, w)
	if err != nil {
		return nil, err
	}
	engines := make([]*sim.Engine, len(specs))
	for i, spec := range specs {
		e, err := sim.NewEngine(spec, w)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		engines[i] = e
	}
	return &Coordinator{
		cfg:     cfg,
		engines: engines,
		drops:   make([]int64, len(engines)),
	}, nil
}

// Done reports whether every round has run.
func (c *Coordinator) Done() bool { return c.round >= c.cfg.Base.Hours }

// Stats returns the exchange telemetry accumulated so far.
func (c *Coordinator) Stats() ExchangeStats { return c.stats }

// RunRound advances every shard by one epoch and applies the barrier:
// outboxes drain in shard-index order, and delivery happens while all
// engines are quiescent — so results are independent of worker
// scheduling.
func (c *Coordinator) RunRound() error {
	if c.Done() {
		return fmt.Errorf("shard: RunRound past round %d of %d", c.round, c.cfg.Base.Hours)
	}
	step := func(i int) (struct{}, error) {
		if err := c.engines[i].Step(); err != nil {
			return struct{}{}, fmt.Errorf("shard %d: %w", i, err)
		}
		return struct{}{}, nil
	}
	if workers := c.cfg.workers(); workers <= 1 {
		for i := range c.engines {
			if _, err := step(i); err != nil {
				return err
			}
		}
	} else if _, err := sweep.Map(workers, len(c.engines), step); err != nil {
		return err
	}
	c.round++
	return c.exchange()
}

// exchange is the barrier body: shard by shard, in index order, it
// drains the shard's forwarded apps and its new drops and delivers them
// to the ring neighbor at the next epoch. Delivering only fills the
// neighbor's inboxes; it never changes the outbox or drop count the loop
// reads when it reaches that neighbor.
func (c *Coordinator) exchange() error {
	n := len(c.engines)
	if !c.cfg.Exchange || n == 1 {
		return nil
	}
	epoch := c.round
	for s, e := range c.engines {
		c.fwdBuf = e.TakeForwarded(c.fwdBuf[:0])
		c.stats.AppsForwarded += len(c.fwdBuf)
		if epoch >= c.cfg.Base.Hours {
			// The run is over: there is no next epoch to deliver at.
			c.stats.AppsUndelivered += len(c.fwdBuf)
			continue
		}
		to := (s + 1) % n
		for _, app := range c.fwdBuf {
			if err := c.engines[to].InjectApp(epoch, app.Model); err != nil {
				return fmt.Errorf("shard: forwarding an app %d->%d: %w", s, to, err)
			}
			c.stats.Messages++
		}
		d := e.TrafficDropped()
		if delta := d - c.drops[s]; delta > 0 {
			if err := c.engines[to].InjectRequests(epoch, delta); err != nil {
				return fmt.Errorf("shard: spilling %d->%d: %w", s, to, err)
			}
			c.stats.Messages++
			c.stats.SpillRequests += delta
		}
		c.drops[s] = d
	}
	return nil
}

// Run advances every remaining round.
func (c *Coordinator) Run() error {
	for !c.Done() {
		if err := c.RunRound(); err != nil {
			return err
		}
	}
	return nil
}

// MergedState folds the per-shard results into one region-level result
// state, merging in shard-index order (see MergeResults).
func (c *Coordinator) MergedState() (sim.ResultState, error) {
	states := make([]sim.ResultState, len(c.engines))
	for i, e := range c.engines {
		states[i] = e.Finish().State()
	}
	return MergeResults(states)
}

// MergedPhases merges the per-shard phase tracers (Base.Obs runs) into
// one report, folding in shard-index order so the output is independent
// of shard completion order. Nil without observability.
func (c *Coordinator) MergedPhases() ([]obs.PhaseStat, error) {
	agg := sim.NewPhaseTracer()
	any := false
	for i, e := range c.engines {
		tr := e.Tracer()
		if tr == nil {
			continue
		}
		any = true
		if err := agg.Merge(tr); err != nil {
			return nil, fmt.Errorf("shard %d tracer: %w", i, err)
		}
	}
	if !any {
		return nil, nil
	}
	return agg.Report(), nil
}
