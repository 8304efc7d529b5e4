package sim

import "fmt"

// Cross-shard exchange: when a World is partitioned across several
// engines, the shard coordinator moves work between them at round
// barriers — fresh arrivals no shard-local server could host
// (Config.ForwardUnplaced fills the outbox) and spill-over request
// volume. Each engine only exposes mailboxes; the coordinator owns
// routing, ordering, and delivery. Injected work enters through the
// engine's gateway site (the highest-demand site), keeping the engine's
// own RNG streams untouched: an engine with empty mailboxes is
// byte-identical to a standalone run of the same config.

// ForwardedApp is one unplaced fresh arrival exported for placement on
// another shard: the epoch it went unplaced and the model it runs. The
// destination re-derives every other app parameter from its own config
// (shards share RTTLimitMs/RatePerSec by construction).
type ForwardedApp struct {
	Epoch int    `json:"epoch"`
	Model string `json:"model"`
}

// inboxApp is one coordinator-injected arrival, joining the backlog at
// its target epoch.
type inboxApp struct {
	epoch int
	model string
}

// inboxReq is coordinator-injected request volume, routed from the
// gateway at its target epoch (traffic mode only).
type inboxReq struct {
	epoch int
	n     int64
}

// InjectApp schedules one cross-shard arrival: at the given epoch it
// joins the backlog as a fresh arrival sourced at the gateway site.
// epoch must not be in the past or beyond the run span.
func (e *Engine) InjectApp(epoch int, model string) error {
	if epoch < e.epoch || epoch >= e.cfg.Hours {
		return fmt.Errorf("sim: InjectApp at epoch %d (next %d, span %d)", epoch, e.epoch, e.cfg.Hours)
	}
	if model == "" {
		model = appModel
	}
	e.inApps = append(e.inApps, inboxApp{epoch: epoch, model: model})
	return nil
}

// InjectRequests schedules n cross-shard requests for the given epoch's
// traffic slice, routed from the gateway site. Traffic mode only.
func (e *Engine) InjectRequests(epoch int, n int64) error {
	if e.tgen == nil {
		return fmt.Errorf("sim: InjectRequests needs traffic mode")
	}
	if n <= 0 {
		return fmt.Errorf("sim: InjectRequests of %d requests", n)
	}
	if epoch < e.epoch || epoch >= e.cfg.Hours {
		return fmt.Errorf("sim: InjectRequests at epoch %d (next %d, span %d)", epoch, e.epoch, e.cfg.Hours)
	}
	e.inReqs = append(e.inReqs, inboxReq{epoch: epoch, n: n})
	return nil
}

// TakeForwarded appends the outbox — every arrival ForwardUnplaced
// exported since the last call — to buf and clears it. The coordinator
// drains outboxes in shard-index order at each round barrier.
func (e *Engine) TakeForwarded(buf []ForwardedApp) []ForwardedApp {
	buf = append(buf, e.outbox...)
	e.outbox = e.outbox[:0]
	return buf
}

// TrafficDropped is the cumulative count of requests the router dropped
// from the engine's own sources (0 outside traffic mode): injected
// volume it dropped is left out, so spill-over moves one hop. The
// coordinator diffs it across round barriers to derive spill-over
// volume.
func (e *Engine) TrafficDropped() int64 {
	if e.res.Traffic == nil {
		return 0
	}
	return e.res.Traffic.Dropped - e.inDropped
}

// consumeInboxApps moves due injected arrivals into the backlog, in
// injection order, as fresh gateway-sourced arrivals. Runs in the
// arrivals phase after the epoch's own Poisson draws, so injection
// never perturbs the engine's RNG stream.
func (e *Engine) consumeInboxApps() {
	if len(e.inApps) == 0 {
		return
	}
	keep := e.inApps[:0]
	for _, p := range e.inApps {
		if p.epoch > e.epoch {
			keep = append(keep, p)
			continue
		}
		app := *e.appTemplate(e.pool.model(p.model), e.gateway)
		app.ID = e.queueID(len(e.pending))
		e.pending = append(e.pending, pendingApp{
			app:       app,
			src:       e.gateway,
			expires:   -1,
			evictedAt: -1,
			injected:  true,
		})
	}
	e.inApps = keep
}
