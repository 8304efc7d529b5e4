// Command cesim runs CarbonEdge evaluation experiments and prints the rows
// and series of the corresponding paper tables and figures.
//
// Usage:
//
//	cesim -exp fig11              # one experiment
//	cesim -all                    # every experiment
//	cesim -only 'fig1*'           # every experiment matching a glob
//	cesim -only faults            # just the faults family
//	cesim -list                   # list experiment IDs
//	cesim -exp fig11 -hours 720   # bound CDN simulations to 30 days
//	cesim -exp fig12 -parallel 8  # sweep the grid on 8 workers
//	cesim -exp sharded -shards 4  # step shard engines on 4 workers
//
// The sharded family sweeps fixed shard counts (1, 2, 4) per region;
// -shards only sets how many goroutines step them, and its table is
// byte-identical at every value (CI diffs -shards 1 against -shards 4).
//
// Long runs survive interruption with -checkpoint-dir: every simulation
// grid journals completed points there (and the longhaul experiment its
// hourly engine checkpoints), and re-running with -resume skips what is
// already done, stitching results back bit-identically:
//
//	cesim -all -checkpoint-dir /tmp/cesim-ckpt            # fresh, journaled
//	cesim -all -checkpoint-dir /tmp/cesim-ckpt -resume    # continue after a kill
//
// Observability: -obs traces every simulation's timeline phases and
// appends a per-phase breakdown (plus heap/GC telemetry) to each
// experiment report; -all turns it on by default (pass -obs=false to
// keep -all output minimal). -cpuprofile and -memprofile write pprof
// profiles of the whole run:
//
//	cesim -exp fig12 -obs                                 # phase breakdown for one experiment
//	cesim -all -cpuprofile cpu.out -memprofile mem.out    # profile the full suite
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run())
}

// run is main's body with a conventional exit code, so profile-writing
// defers run before the process exits.
func run() int {
	var (
		exp      = flag.String("exp", "", "experiment ID (see -list)")
		only     = flag.String("only", "", "run every experiment matching a glob (e.g. 'fig1*', 'faults')")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment IDs")
		seed     = flag.Int64("seed", 42, "dataset seed")
		hours    = flag.Int("hours", 8760, "CDN simulation span in hours (8760 = paper's year)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size for simulation grids")
		shards   = flag.Int("shards", 1, "worker goroutines stepping shard engines in the sharded experiment family (results are identical at any value)")
		ckptDir  = flag.String("checkpoint-dir", "", "directory for resumable sweep journals and engine checkpoints")
		resume   = flag.Bool("resume", false, "reuse journals in -checkpoint-dir, skipping completed grid points")
		obsFlag  = flag.Bool("obs", false, "trace timeline phases and append per-experiment breakdowns (default with -all)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "cesim: -resume needs -checkpoint-dir")
		return 2
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return 0
	}
	if !*all && *exp == "" && *only == "" {
		fmt.Fprintln(os.Stderr, "cesim: pass -exp <id>, -only <glob>, -all, or -list")
		return 2
	}

	suite, err := experiments.NewSuite(*seed, *hours)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cesim: %v\n", err)
		if *hours < 1 {
			return 2 // a usage error, like a bad glob
		}
		return 1
	}
	suite.Parallel = *parallel
	suite.Shards = *shards
	suite.CheckpointDir = *ckptDir
	suite.Resume = *resume
	// -all traces by default; an explicit -obs=false wins.
	obsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "obs" {
			obsSet = true
		}
	})
	suite.Obs = *obsFlag || (*all && !obsSet)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cesim: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cesim: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProf == "" {
			return
		}
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cesim: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC() // up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cesim: %v\n", err)
		}
	}()

	ids := []string{*exp}
	switch {
	case *all:
		ids = experiments.IDs()
	case *only != "":
		ids, err = experiments.MatchIDs(*only)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cesim: %v\n", err)
			return 2
		}
	}
	total := time.Duration(0)
	for _, id := range ids {
		rep, err := experiments.RunReport(suite, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cesim: %v\n", err)
			return 1
		}
		total += rep.Elapsed
		fmt.Printf("%s\n", rep)
	}
	if len(ids) > 1 {
		fmt.Printf("--- %d experiments in %.1fs (parallel=%d) ---\n",
			len(ids), total.Seconds(), *parallel)
	}
	return 0
}
