package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/carbon"
	"repro/internal/checkpoint"
	"repro/internal/placement"
	"repro/internal/sim"
)

// LonghaulResult is the long-horizon checkpointing demonstration: a
// multi-month redeploying CDN run checkpointed every simulated hour,
// with the resume path verified in-line — the engine is restored from
// the mid-run checkpoint and driven to the end, and the two final
// results are compared byte for byte.
type LonghaulResult struct {
	Region          carbon.Region
	Hours           int
	Checkpoints     int
	SnapshotBytes   int           // size of the last encoded checkpoint
	CheckpointTime  time.Duration // total time spent snapshotting+encoding
	RestoreEpoch    int           // epoch of the checkpoint the verify resumed from
	ResumeIdentical bool
	CheckpointFile  string // last on-disk checkpoint ("" = in-memory only)
	CarbonKg        float64
	Placed          int
	Migrations      int
}

// String renders the demonstration summary.
func (r *LonghaulResult) String() string {
	file := r.CheckpointFile
	if file == "" {
		file = "(in-memory)"
	}
	rows := [][]string{
		{"span", fmt.Sprintf("%d h (%.1f months)", r.Hours, float64(r.Hours)/730)},
		{"checkpoints", fmt.Sprintf("%d hourly, %.1f KB each, %.1f ms total", r.Checkpoints, float64(r.SnapshotBytes)/1024, float64(r.CheckpointTime)/float64(time.Millisecond))},
		{"resume verify", fmt.Sprintf("restored at epoch %d, byte-identical=%v", r.RestoreEpoch, r.ResumeIdentical)},
		{"checkpoint file", file},
		{"run", fmt.Sprintf("%.1f kgCO2eq, %d placed, %d migrations", r.CarbonKg, r.Placed, r.Migrations)},
	}
	return table(fmt.Sprintf("longhaul: %v multi-month run, hourly checkpoint/restore", r.Region), rows)
}

// Longhaul runs the long-horizon checkpoint demonstration: a redeploying
// CDN simulation over up to six months, snapshotted at every epoch (the
// most recent checkpoint is kept on disk when the suite has a checkpoint
// directory), then proven resumable by restoring the mid-run snapshot
// and comparing the completed result against the uninterrupted one.
func (s *Suite) Longhaul() (*LonghaulResult, error) {
	region := carbon.RegionEurope
	cfg := s.cdnConfig(region, placement.CarbonAware{})
	if cfg.Hours > 24*183 {
		cfg.Hours = 24 * 183 // six months
	}
	cfg.RedeployEveryHours = 24
	cfg.MigrationDataMB, cfg.MigrationJPerMB = 500, 0.2

	res := &LonghaulResult{Region: region, Hours: cfg.Hours, CheckpointFile: s.checkpointPath("engine.ckpt")}
	e, err := sim.NewEngine(cfg, s.World)
	if err != nil {
		return nil, err
	}

	var (
		buf    bytes.Buffer // one envelope buffer, reused every epoch
		midRaw []byte
	)
	midEpoch := cfg.Hours / 2
	for !e.Done() {
		if err := e.Step(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		buf.Reset()
		if err := checkpoint.Encode(&buf, "engine", e.Snapshot()); err != nil {
			return nil, err
		}
		res.Checkpoints++
		res.SnapshotBytes = buf.Len()
		if res.CheckpointFile != "" {
			// Reuse the encoded envelope: sealing the snapshot once is the
			// cost the CheckpointTime metric reports.
			if err := checkpoint.SaveBytes(res.CheckpointFile, buf.Bytes()); err != nil {
				return nil, err
			}
		}
		res.CheckpointTime += time.Since(t0)
		if e.Epoch() == midEpoch {
			midRaw = append([]byte(nil), buf.Bytes()...)
		}
	}
	final := e.Finish()
	res.CarbonKg = final.CarbonG / 1000
	res.Placed = final.Placed
	res.Migrations = final.Migrations

	// Resume verification: decode the mid-run checkpoint as a restore
	// would (off the wire), run to the end, compare byte for byte.
	var midSnap sim.Snapshot
	if err := checkpoint.Decode(bytes.NewReader(midRaw), "engine", &midSnap); err != nil {
		return nil, err
	}
	res.RestoreEpoch = midSnap.Epoch
	r, err := sim.NewEngineFrom(cfg, s.World, &midSnap)
	if err != nil {
		return nil, err
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			return nil, err
		}
	}
	a, b := final.State(), r.Finish().State()
	a.SolveTimeNs, b.SolveTimeNs = 0, 0
	ab, err := json.Marshal(a)
	if err != nil {
		return nil, err
	}
	bb, err := json.Marshal(b)
	if err != nil {
		return nil, err
	}
	res.ResumeIdentical = bytes.Equal(ab, bb)
	if !res.ResumeIdentical {
		return nil, fmt.Errorf("experiments: longhaul resume diverged from the uninterrupted run")
	}
	return res, nil
}
