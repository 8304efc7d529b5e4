GO ?= go

.PHONY: all build test race lint fuzz size reach bench bench-quick bench-smoke bench-profile

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the packages with concurrency suites under the race detector;
# the CI "race (concurrent packages)" step calls it.
race:
	$(GO) test -race ./internal/placement/ ./internal/sim/ ./internal/sweep/ \
		./internal/experiments/ ./internal/metrics/ ./internal/traffic/ \
		./internal/router/ ./internal/events/ ./internal/orchestrator/ \
		./internal/checkpoint/ ./internal/rng/ ./internal/obs/ \
		./internal/shard/ ./internal/geo/ ./internal/carbon/ \
		./internal/testbed/

# lint runs the full static gate: formatting, the stdlib vet suite
# (with the two determinism-adjacent passes named explicitly so they
# can never be configured away), and detlint — the repo's own
# determinism and hot-path analyzers (see README "Static analysis").
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -copylocks -loopclosure ./...
	$(GO) run ./cmd/detlint ./...

# fuzz runs each native fuzz target for FUZZTIME past its checked-in
# corpus (testdata/fuzz/<target>/, which plain `go test` replays as
# ordinary cases); the CI "fuzz smoke" step calls it. A new crasher is
# written into that directory: fix it and check the file in. The decoder
# and restore inputs are kilobytes of JSON, and Go minimizes every new interesting input by
# default for up to a minute, so minimization is capped or the fuzzer
# spends its whole budget there.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 1s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz '^FuzzNewEngineFrom$$' -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 1s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzAppendJSON$$' -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 1s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzSimFaults$$' -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 1s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzParseFaultScript$$' -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 1s ./internal/events/
	$(GO) test -run '^$$' -fuzz '^FuzzCertifiedMatchesMILP$$' -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 1s ./internal/placement/
	$(GO) test -run '^$$' -fuzz '^FuzzHeuristicMatchesSweep$$' -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 1s ./internal/placement/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadState$$' -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 1s ./internal/orchestrator/
	$(GO) test -run '^$$' -fuzz '^FuzzLiveFaults$$' -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 1s ./internal/orchestrator/
	$(GO) test -run '^$$' -fuzz '^FuzzHTTPHandlers$$' -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 1s ./internal/orchestrator/
	$(GO) test -run '^$$' -fuzz '^FuzzRouteSlice$$' -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 1s ./internal/router/
	$(GO) test -run '^$$' -fuzz '^FuzzGeneratorWalk$$' -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 1s ./internal/carbon/

# size prints the size numbers ROADMAP.md quotes: the non-test line count
# of each core package, of shard and checkpoint, of mip and lp (the exact
# placement backend's substrate), of carbon, and of the world core
# (sim + orchestrator + fleet, the packages one world core replaces), the
# number of //detlint: markers outside internal/lint, and the number of
# settable sim.Config fields (each name of a shared declaration such as
# `Demand, Capacity Scenario` counts). CI does not gate on it.
size:
	@for p in sim placement orchestrator fleet shard checkpoint mip lp carbon; do \
		printf '%-14s %s\n' "$$p" "$$(cat $$(ls internal/$$p/*.go | grep -v _test.go) | wc -l)"; \
	done
	@printf '%-14s %s\n' "world core" "$$(cat $$(ls internal/sim/*.go internal/orchestrator/*.go internal/fleet/*.go | grep -v _test.go) | wc -l)"
	@printf '%-14s %s\n' "detlint marks" "$$(grep -rn '//detlint:' --include=*.go . | grep -v '^./internal/lint' | wc -l)"
	@printf '%-14s %s\n' "Config fields" "$$(awk '/^type Config struct/{f=1;next} f&&/^}/{f=0} f&&/^\t[A-Z]/{n+=split($$0,a,",")} END{print n}' internal/sim/config.go)"

# reach measures program reach (cmd/reach): it builds cesim, carbonedge,
# the examples and the ledger with coverage instrumentation of the whole
# module, runs them under GOCOVERDIR (the suite at 240 h, a journaled
# fig1* run and its resume, longhaul's checkpoints, the ledger at one
# rep, every example and a scripted carbonedge session over loopback),
# prints per-package reach, and fails when a function of internal/ (but
# internal/lint), cmd/cesim or cmd/carbonedge is never executed and not
# in cmd/reach/allowlist.txt, or when an allowlist entry is stale.
# Binaries and coverage data go to a temporary directory; the CI
# "program reach" step calls it. ~1 min.
reach:
	$(GO) run ./cmd/reach

# bench runs the performance ledger (bench/README.md): seven workloads,
# end-to-end and per-layer metrics, correctness checks, ~3 min. It builds
# into .bench_build/ and writes bench/out/; pass flags through run.sh
# directly (`bash bench/run.sh --workload redeploy_churn --trace 0`).
bench:
	bash bench/run.sh

# bench-quick is the ledger's own test suite: every workload at -quick
# size held against the BENCHMARK.json manifest, and the driver's
# one-workload contract line; a few seconds.
bench-quick:
	cd bench && $(GO) test ./...

bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-profile records CPU and allocation profiles of the solver-bound
# workload (BenchmarkRedeployChurn), a CPU profile of the request path
# (BenchmarkTrafficReplay: generator, router, latency sketch), one of the
# live control plane (BenchmarkOrchestratorLive: HTTP API, ticks,
# scrapes), one of the paper's CDN year (BenchmarkCDNYear: the per-epoch
# floor of carbon reads, view assembly and no-move solves) and one of the
# checkpoint write path (BenchmarkCheckpointResume: Snapshot and
# checkpoint.Encode, that is Snapshot.AppendJSON and SHA-256, after every
# Step) and one of the world build's carbon generator
# (BenchmarkTraceGeneration: a year of one curated zone's intensity per
# op), and prints the top-10 flat summaries. The checked-in snapshots
# of those summaries live in profiles/PROFILE_47.md (checkpoint before
# and after the sorted placement count lists and the result's monthly
# figures and count entries cached by value, with the row cache's
# counted renders), profiles/PROFILE_44.md (redeploy churn
# before and after the solver's in-place floors, per-class touches and
# table-read warm slots, and the engine's one view per stranded
# redeploy, with the solver's work counts), profiles/PROFILE_43.md (the request path
# and the ledger's traffic_year before and after the router's one-pass
# route: feasible list only, spill list on spill, no per-replica
# copies), profiles/PROFILE_42.md (checkpoint before
# and after the engine's row cache: server rows and live-app entries
# unchanged by value are copied, not rendered), profiles/PROFILE_41.md (CDN year before and
# after the solver's gated candidate lists, activation costed only for
# servers that start off, and placements counted in the engine's dense
# table), profiles/PROFILE_40.md (the generator
# before and after each term moved to the period it changes in),
# profiles/PROFILE_39.md (CDN year after the
# engine's row write-through, once-per-epoch zone reads and prefix
# departures), profiles/PROFILE_33.md (CDN year and
# redeploy churn after construct's seeded picks, its fixpoint
# certificate and the bound arrival templates; profiles/PROFILE_17.md is
# the CDN year before them, profiles/PROFILE_29.md the churn after the
# class hints and carried slots, profiles/PROFILE_25.md after the class
# floor, profiles/PROFILE_19.md after the class memos),
# profiles/PROFILE_32.md (traffic after the diurnal table, the exact
# compare fold and the per-source pair rows; profiles/PROFILE_13.md
# before them), profiles/PROFILE_14.md and
# profiles/PROFILE_21.md (live, the latter under GOMAXPROCS=1 as the
# ledger runs it) and
# profiles/PROFILE_31.md (checkpoint after the live-table float memo,
# since removed, and the counters' sorted labels; profiles/PROFILE_27.md after the
# reflection-free snapshot encoder, profiles/PROFILE_18.md after the
# single-encode framing);
# profiles/PROFILE_12.md is the retired workspace benchmark's, kept as
# history. Regenerate them
# with this target after solver, request-path, orchestrator, engine or
# codec changes. The benchmarks run in separate invocations: profiling
# needs a single test binary (so the repo root package, not ./...).
bench-profile:
	mkdir -p profiles
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkRedeployChurn' \
		-benchtime 3x -cpuprofile profiles/churn-cpu.pprof \
		-memprofile profiles/churn-mem.pprof -o profiles/bench.test .
	$(GO) test -run '^$$' -bench 'BenchmarkTrafficReplay$$' \
		-benchtime 300x -cpuprofile profiles/traffic-cpu.pprof \
		-o profiles/bench.test .
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkOrchestratorLive$$' \
		-benchtime 12x -cpuprofile profiles/live-cpu.pprof \
		-o profiles/bench.test .
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkCDNYear$$' \
		-benchtime 10x -cpuprofile profiles/cdn-cpu.pprof \
		-o profiles/bench.test .
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkCheckpointResume$$' \
		-benchtime 4x -cpuprofile profiles/ckpt-cpu.pprof \
		-o profiles/bench.test .
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkTraceGeneration$$' \
		-benchtime 2000x -cpuprofile profiles/traces-cpu.pprof \
		-o profiles/bench.test .
	$(GO) tool pprof -top -nodecount=10 profiles/bench.test profiles/churn-cpu.pprof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space profiles/bench.test profiles/churn-mem.pprof
	$(GO) tool pprof -top -nodecount=10 profiles/bench.test profiles/traffic-cpu.pprof
	$(GO) tool pprof -top -nodecount=10 profiles/bench.test profiles/live-cpu.pprof
	$(GO) tool pprof -top -nodecount=10 profiles/bench.test profiles/cdn-cpu.pprof
	$(GO) tool pprof -top -nodecount=10 profiles/bench.test profiles/ckpt-cpu.pprof
	$(GO) tool pprof -top -nodecount=10 profiles/bench.test profiles/traces-cpu.pprof
