// Package obs is the unified observability layer: a phase-level tracer
// for the simulator's epoch phases and the orchestrator's tick sections,
// a metrics registry with Prometheus-style text exposition, and a flight
// recorder — a fixed-size ring of recent phases and faults for
// post-mortem of fault storms.
//
// The package follows the same discipline the epoch hot loop does:
// enabled tracing must not allocate in steady state. The tracer keeps
// per-phase accumulators in preallocated index-keyed slices updated with
// atomic adds; timing probes live on the caller's stack; heap-allocation
// deltas are sampled on every Nth phase call (runtime/metrics reads into
// a preallocated sample buffer) so the alloc attribution costs amortized
// fractions of an allocation per epoch. The flight recorder writes plain
// structs into a preallocated ring. The registry is scrape-time-only:
// nothing on the hot path touches it.
//
//	             ┌────────────┐   Begin/End    ┌─────────────┐
//	sim.Engine ──┤  Tracer    ├───────────────▶│ PhaseStat[] │──▶ /api/v1/obs
//	orch.Tick  ──┤ (atomic)   │                └─────────────┘    cesim tables
//	             └────────────┘
//	             ┌────────────┐   Record       ┌─────────────┐
//	dispatch  ───┤ FlightRec. ├───────────────▶│ ring buffer │──▶ checkpoints
//	faults    ───┤ (ring)     │                └─────────────┘    /api/v1/obs
//	             └────────────┘
//	             ┌────────────┐   WriteText    ┌─────────────┐
//	counters  ───┤ Registry   ├───────────────▶│ Prometheus  │──▶ /metrics
//	sketches  ───┤ (scrape)   │                │ text format │
//	             └────────────┘                └─────────────┘
package obs

import (
	"fmt"
	rtm "runtime/metrics"
	"sync/atomic"
	"time"
)

// Defaults for Config's zero values.
const (
	// DefaultFlightRecorderEvents is the ring capacity when
	// Config.FlightRecorderEvents is zero.
	DefaultFlightRecorderEvents = 256
	// DefaultAllocProbeEvery is the alloc-probe sampling period when
	// Config.AllocProbeEvery is zero: one heap-allocation delta is
	// measured per phase per this many calls.
	DefaultAllocProbeEvery = 64
)

// Config opts a simulation engine into observability. The zero value
// enables everything at the defaults; negative values disable the
// corresponding piece.
type Config struct {
	// FlightRecorderEvents sizes the ring buffer of recent phases and
	// faults (0 = DefaultFlightRecorderEvents, < 0 disables the
	// recorder).
	FlightRecorderEvents int
	// AllocProbeEvery samples a heap-allocation delta on every Nth call
	// per phase (0 = DefaultAllocProbeEvery, < 0 disables alloc
	// probing). Probing reads runtime/metrics' heap-allocation counter,
	// which is cheap but not free; the period bounds its amortized cost.
	AllocProbeEvery int
}

// heapAllocsMetric is the cumulative heap-allocation byte counter the
// alloc probes sample.
const heapAllocsMetric = "/gc/heap/allocs:bytes"

// PhaseStat is one phase's accumulated telemetry.
type PhaseStat struct {
	// Name is the phase's kind ("faults", "placement", ...).
	Name string `json:"name"`
	// Calls is how many times the phase ran.
	Calls int64 `json:"calls"`
	// TotalNs is the summed wall time across all calls.
	TotalNs int64 `json:"total_ns"`
	// MaxNs is the slowest single call.
	MaxNs int64 `json:"max_ns"`
	// AllocBytes is the summed heap-allocation delta over the sampled
	// calls (see AllocProbes); scale by Calls/AllocProbes to estimate
	// the phase's total allocation volume.
	AllocBytes int64 `json:"alloc_bytes"`
	// AllocProbes is how many calls were alloc-sampled.
	AllocProbes int64 `json:"alloc_probes"`
}

// MeanNs is the average wall time per call (0 before the first call).
func (p PhaseStat) MeanNs() int64 {
	if p.Calls == 0 {
		return 0
	}
	return p.TotalNs / p.Calls
}

// AllocBytesPerCall estimates the phase's per-call heap allocation from
// the sampled calls (0 when probing is off).
func (p PhaseStat) AllocBytesPerCall() float64 {
	if p.AllocProbes == 0 {
		return 0
	}
	return float64(p.AllocBytes) / float64(p.AllocProbes)
}

// Tracer accumulates per-phase timings, call counts, and sampled
// heap-allocation deltas into preallocated index-keyed slices. Phases
// are fixed at construction; Begin/End cost two atomic adds plus a
// clock read (and, on sampled calls, a runtime/metrics read), and
// allocate nothing.
//
// Begin and End must be called from the tracer's owner goroutine (an
// engine, or the orchestrator under its lock): the alloc-probe sample
// buffer is not guarded. Report, Snapshot consumers, and Merge *into* a
// tracer read and write the accumulators atomically, so scraping a live
// tracer and merging worker tracers into a shared aggregate are safe.
type Tracer struct {
	names  []string
	calls  []int64
	ns     []int64
	maxNs  []int64
	allocB []int64
	probes []int64
	// every is the alloc-probe period (0 = probing off).
	every int64
	// sample is the preallocated runtime/metrics read buffer, touched
	// only by the owner goroutine inside Begin/End.
	sample [1]rtm.Sample
}

// NewTracer builds a tracer over the given phase names.
// allocProbeEvery follows Config.AllocProbeEvery semantics (0 =
// DefaultAllocProbeEvery, < 0 disables alloc probing).
func NewTracer(names []string, allocProbeEvery int) *Tracer {
	every := int64(allocProbeEvery)
	if allocProbeEvery == 0 {
		every = DefaultAllocProbeEvery
	} else if allocProbeEvery < 0 {
		every = 0
	}
	t := &Tracer{
		names:  append([]string(nil), names...),
		calls:  make([]int64, len(names)),
		ns:     make([]int64, len(names)),
		maxNs:  make([]int64, len(names)),
		allocB: make([]int64, len(names)),
		probes: make([]int64, len(names)),
		every:  every,
	}
	t.sample[0].Name = heapAllocsMetric
	return t
}

// Phases returns the tracer's phase names in index order. The returned
// slice is shared; do not mutate it.
func (t *Tracer) Phases() []string { return t.names }

// Probe carries one Begin's starting state to its matching End. It is
// plain stack data — passing it by value allocates nothing.
type Probe struct {
	start   time.Time
	heap0   uint64
	sampled bool
}

// Begin starts timing one call of the given phase.
func (t *Tracer) Begin(phase int) Probe {
	p := Probe{start: time.Now()}
	c := atomic.AddInt64(&t.calls[phase], 1)
	if t.every > 0 && (c-1)%t.every == 0 {
		rtm.Read(t.sample[:])
		p.heap0 = t.sample[0].Value.Uint64()
		p.sampled = true
	}
	return p
}

// End finishes the call Begin started, folding its wall time (and, on
// sampled calls, its heap-allocation delta) into the phase accumulators.
// It returns the call's wall time in nanoseconds, for a caller that also
// logs the call (a flight recorder) without reading the clock again.
func (t *Tracer) End(phase int, p Probe) int64 {
	if p.sampled {
		rtm.Read(t.sample[:])
		atomic.AddInt64(&t.allocB[phase], int64(t.sample[0].Value.Uint64()-p.heap0))
		atomic.AddInt64(&t.probes[phase], 1)
	}
	d := int64(time.Since(p.start))
	atomic.AddInt64(&t.ns[phase], d)
	for {
		max := atomic.LoadInt64(&t.maxNs[phase])
		if d <= max || atomic.CompareAndSwapInt64(&t.maxNs[phase], max, d) {
			return d
		}
	}
}

// Report snapshots every phase's accumulators. The returned slice is
// freshly allocated — Report is for scrapes and end-of-run rendering,
// not the hot path.
func (t *Tracer) Report() []PhaseStat {
	out := make([]PhaseStat, len(t.names))
	for i, name := range t.names {
		out[i] = PhaseStat{
			Name:        name,
			Calls:       atomic.LoadInt64(&t.calls[i]),
			TotalNs:     atomic.LoadInt64(&t.ns[i]),
			MaxNs:       atomic.LoadInt64(&t.maxNs[i]),
			AllocBytes:  atomic.LoadInt64(&t.allocB[i]),
			AllocProbes: atomic.LoadInt64(&t.probes[i]),
		}
	}
	return out
}

// Merge folds src's accumulators into t. Both tracers must have been
// built over identical phase lists. Merging is atomic per counter, so
// any number of finished worker tracers may merge into one shared
// aggregate concurrently; src must be quiescent (no in-flight Begin).
func (t *Tracer) Merge(src *Tracer) error {
	if len(src.names) != len(t.names) {
		return fmt.Errorf("obs: merging tracer with %d phases into %d", len(src.names), len(t.names))
	}
	for i, name := range t.names {
		if src.names[i] != name {
			return fmt.Errorf("obs: phase %d is %q in source, %q in target", i, src.names[i], name)
		}
		atomic.AddInt64(&t.calls[i], atomic.LoadInt64(&src.calls[i]))
		atomic.AddInt64(&t.ns[i], atomic.LoadInt64(&src.ns[i]))
		atomic.AddInt64(&t.allocB[i], atomic.LoadInt64(&src.allocB[i]))
		atomic.AddInt64(&t.probes[i], atomic.LoadInt64(&src.probes[i]))
		m := atomic.LoadInt64(&src.maxNs[i])
		for {
			max := atomic.LoadInt64(&t.maxNs[i])
			if m <= max || atomic.CompareAndSwapInt64(&t.maxNs[i], max, m) {
				break
			}
		}
	}
	return nil
}

// Reset zeroes every accumulator, keeping the phase list.
func (t *Tracer) Reset() {
	for i := range t.names {
		atomic.StoreInt64(&t.calls[i], 0)
		atomic.StoreInt64(&t.ns[i], 0)
		atomic.StoreInt64(&t.maxNs[i], 0)
		atomic.StoreInt64(&t.allocB[i], 0)
		atomic.StoreInt64(&t.probes[i], 0)
	}
}
