package shard

import (
	"fmt"
	"maps"

	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/sim"
)

// MergeResults folds per-shard result states into one region-level
// state, as if a single engine had accumulated all of them. Scalars and
// counters sum, summaries and latency sketches merge accumulator-wise,
// and LoadCI concatenates per-shard series in shard order. Folding
// always runs in slice (shard-index) order, so the merged state — and
// its JSON encoding — is byte-for-byte reproducible no matter which
// order the shards finished in. A shard engine's router keeps no
// per-replica rows, so a traffic state that carries them is refused
// rather than folded without them.
func MergeResults(states []sim.ResultState) (sim.ResultState, error) {
	if len(states) == 0 {
		return sim.ResultState{}, fmt.Errorf("shard: merging zero results")
	}
	for s, st := range states {
		if st.Traffic != nil && st.Traffic.Replicas != nil {
			return sim.ResultState{}, fmt.Errorf("shard %d: per-replica traffic stats are not merged", s)
		}
	}
	out := states[0]
	// Deep-copy the parts the fold mutates so callers' states stay intact.
	// The count lists need no copy: Plus builds new ones.
	out.LoadCI = append([]float64(nil), states[0].LoadCI...)
	if states[0].Faults != nil {
		fs := *states[0].Faults
		out.Faults = &fs
	}
	if states[0].Traffic != nil {
		out.Traffic = copyTraffic(states[0].Traffic)
	}

	lat := metrics.SummaryFromState(out.Latency)
	var monthly [12]metrics.Summary
	for m := range monthly {
		monthly[m] = metrics.SummaryFromState(out.MonthlyLatency[m])
	}

	for s := 1; s < len(states); s++ {
		st := states[s]
		out.CarbonG += st.CarbonG
		out.EnergyKWh += st.EnergyKWh
		for m := range out.MonthlyCarbonG {
			out.MonthlyCarbonG[m] += st.MonthlyCarbonG[m]
		}
		sum := metrics.SummaryFromState(st.Latency)
		lat.Merge(&sum)
		for m := range monthly {
			ms := metrics.SummaryFromState(st.MonthlyLatency[m])
			monthly[m].Merge(&ms)
		}
		out.PlacementsByCity = out.PlacementsByCity.Plus(st.PlacementsByCity)
		out.MonthlyPlacements = out.MonthlyPlacements.Plus(st.MonthlyPlacements)
		out.LoadCI = append(out.LoadCI, st.LoadCI...)
		out.Placed += st.Placed
		out.Unplaced += st.Unplaced
		out.Migrations += st.Migrations
		out.MigrationKWh += st.MigrationKWh
		out.MigrationCarbonG += st.MigrationCarbonG
		out.SolveTimeNs += st.SolveTimeNs
		out.Batches += st.Batches

		if st.Faults != nil {
			if out.Faults == nil {
				out.Faults = &sim.FaultStats{}
			}
			mergeFaults(out.Faults, st.Faults)
		}
		if st.Traffic != nil {
			if out.Traffic == nil {
				out.Traffic = copyTraffic(st.Traffic)
			} else if err := mergeTraffic(out.Traffic, st.Traffic); err != nil {
				return sim.ResultState{}, fmt.Errorf("shard %d: %w", s, err)
			}
		}
	}

	out.Latency = lat.State()
	for m := range monthly {
		out.MonthlyLatency[m] = monthly[m].State()
	}
	return out, nil
}

func mergeFaults(dst, src *sim.FaultStats) {
	dst.Events += src.Events
	dst.ServerCrashes += src.ServerCrashes
	dst.ServerRecoveries += src.ServerRecoveries
	dst.ScaleOuts += src.ScaleOuts
	dst.Evictions += src.Evictions
	dst.Replaced += src.Replaced
	dst.Lost += src.Lost
	dst.DowntimeEpochs += src.DowntimeEpochs
	dst.OutageEpochs += src.OutageEpochs
	dst.ViolationsDuringOutage += src.ViolationsDuringOutage
	dst.DroppedDuringOutage += src.DroppedDuringOutage
}

// copyTraffic deep-copies a traffic state so the fold never mutates a
// caller-owned map or bucket slice.
func copyTraffic(src *router.StatsState) *router.StatsState {
	st := *src
	st.Latency.Buckets = append([]uint64(nil), src.Latency.Buckets...)
	st.ByReplica = maps.Clone(src.ByReplica)
	return &st
}

func mergeTraffic(dst, src *router.StatsState) error {
	dst.Requests += src.Requests
	dst.SLOMet += src.SLOMet
	dst.Spilled += src.Spilled
	dst.Dropped += src.Dropped
	dst.OverloadSlices += src.OverloadSlices
	dst.EnergyKWh += src.EnergyKWh
	dst.CarbonG += src.CarbonG
	a, err := metrics.SketchFromState(dst.Latency)
	if err != nil {
		return fmt.Errorf("merging traffic latency: %w", err)
	}
	b, err := metrics.SketchFromState(src.Latency)
	if err != nil {
		return fmt.Errorf("merging traffic latency: %w", err)
	}
	if err := a.Merge(b); err != nil {
		return fmt.Errorf("merging traffic latency: %w", err)
	}
	dst.Latency = a.State()
	if dst.ByReplica == nil {
		dst.ByReplica = map[string]int64{}
	}
	for id, n := range src.ByReplica {
		dst.ByReplica[id] += n
	}
	return nil
}
