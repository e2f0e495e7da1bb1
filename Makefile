GO ?= go

.PHONY: all build fmt-check perfbench-test verify test loc race race-sim race-faults race-shards race-serve audit-smoke scale-smoke explain-smoke serve-soak metrics-smoke fuzz-smoke vet bench bench-alloc bench-json bench-diff profile-huge profile-pa cover trace clean

all: verify

build:
	$(GO) build ./...

# verify is the tier-1 gate: compile, formatting and static checks, the
# full test suite (the benchmark's nested module included), the race
# detector over the simulator hot-path packages, and the observability
# smoke.
verify: build fmt-check vet test perfbench-test race-sim race-faults race-shards race-serve audit-smoke scale-smoke explain-smoke serve-soak metrics-smoke bench-diff

test:
	$(GO) test ./...

# loc prints the non-test Go lines outside perfbench/ (tracked files
# plus untracked ones git does not ignore): the size figure CHANGES.md
# quotes for each change's line delta.
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/' | xargs cat | wc -l

# fmt-check fails, listing the files, when any Go file is not gofmt'ed.
fmt-check:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; }

# perfbench-test vets and tests the benchmark program (load generator,
# output audit, access-log checks): perfbench/ is a nested module, so
# the root ./... never reaches it.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# race-sim races the event-loop packages plus everything the telemetry
# layer touches concurrently (search worker pool, recycled search
# scratch, estimate cache, registry), the fleet index whose allocation
# classes the search reads, and the campaign's worker pool (base sweeps
# and grid experiments metered concurrently); fast enough to gate every
# verify.
race-sim:
	$(GO) test -race ./internal/cloudsim ./internal/eventq ./internal/core ./internal/model ./internal/obs ./internal/strategy \
		./internal/campaign ./internal/power

# race-faults races the fault-injection layer: the schedule generator
# plus the fault-mode simulator and placement-index paths (crash/recover
# events, re-queue, search-budget degradation to first-fit).
race-faults:
	$(GO) test -race -run 'Fault|Crash|Checkpoint|DownUp|Degrade|Budget' \
		./internal/faults ./internal/cloudsim ./internal/strategy ./internal/core

# race-serve races the always-on placement service's unit suite (the
# admission pipeline, degradation ladder, limiter, journal and
# snapshot/restore paths); -short skips the chaos soak, which gets its
# own non-race target below.
race-serve:
	$(GO) test -race -short -count=1 ./internal/serve ./cmd/pacevm-serve

# race-shards races the sharded parallel engine under faults: the
# determinism stress (shards 2/4/8 with crashes, backfill and
# consolidation), the merge reconciliation and the S=1 identity suite,
# plus the CLI wiring smoke.
race-shards:
	$(GO) test -race -run 'TestSharded|TestRunSharded' ./internal/cloudsim ./cmd/pacevm-sim ./internal/experiments

# audit-smoke runs a tiny faulted simulation with the VM audit, fleet
# series and trace enabled and asserts every exported CSV parses and is
# non-empty (the cmd-level acceptance path for -vm-audit/-series).
audit-smoke:
	$(GO) test -count=1 -run 'TestRunAuditSeries' ./cmd/pacevm-sim

# scale-smoke is the short-mode scaling gate: the wall-clock ratio test
# asserts per-request cost stays flat from a 64-server to a 4096-server
# fleet for FF-2, BF-2 and PA-0.5 — the cheap guard against an
# O(servers)-per-event path creeping back in.
scale-smoke:
	$(GO) test -short -count=1 -run 'TestPerRequestScalingSmoke' ./internal/cloudsim

# explain-smoke is the flight-recorder acceptance path: a faulted,
# sharded, steal-enabled run records its decision log and watchdog
# sweeps, then pacevm-explain reconstructs VM 1's placement chain from
# the log — asserting a place decision exists end-to-end through the
# cross-shard merge. The run itself exits non-zero on any invariant
# violation, so this doubles as the online-watchdog gate.
explain-smoke:
	$(GO) run ./cmd/pacevm-sim -strategy FF-3 -servers 64 -vms 2000 -shards 4 -steal \
		-mtbf 20000 -mttr 600 -watchdog 1024 -decision-log explain-smoke.jsonl
	$(GO) run ./cmd/pacevm-explain -log explain-smoke.jsonl -vm 1 | tee explain-smoke.txt
	grep -q 'place' explain-smoke.txt
	$(GO) run ./cmd/pacevm-explain -log explain-smoke.jsonl -windows

# serve-soak is the chaos soak for the always-on placement service: 30
# wall seconds of concurrent load against the real pacevm-serve binary
# with injected server faults, overload bursts past the queue bound, a
# mid-run kill -9 followed by a -restore restart, and a SIGTERM drain.
# It fails on any lost or duplicated placement, any watchdog invariant
# violation (including post-restore), or a decision log that never shows
# the degradation ladder stepping down and recovering. Artifacts
# (snapshot, journal, decision log) land in serve-soak-artifacts/ at the
# repo root (go test runs in the package directory, hence the absolute
# path) so CI can upload them on failure.
serve-soak:
	PACEVM_SOAK_SECONDS=30 PACEVM_SOAK_DIR=$(CURDIR)/serve-soak-artifacts \
		$(GO) test -count=1 -run TestServeChaosSoak -v ./internal/serve

# metrics-smoke is the observability acceptance path: the real
# pacevm-serve binary runs with span tracing, the SLO tracker, the
# access log and chaos faults all on, and the test machine-validates
# the live /metrics Prometheus exposition (main mux and the dedicated
# -metrics listener), the /debug/slow stage breakdowns, and the access
# log's JSONL lines against a pinned X-Request-Id. Scrapes land in
# serve-soak-artifacts/ so CI can upload them on failure.
metrics-smoke:
	PACEVM_SOAK_DIR=$(CURDIR)/serve-soak-artifacts \
		$(GO) test -count=1 -run TestMetricsSmoke -v ./internal/serve

# fuzz-smoke gives each text-input parser, swf.SortJobs (against its
# stable-sort oracle), the power meter (against its per-window-scan
# oracle), the PA search's distinct-partition lists (against the
# walk-and-skip enumeration they replaced), the simulator's keyed event
# queue (against a map of pending events), the placement service's
# journal reader and
# snapshot+journal restore, and its journal and snapshot encoders
# (against json.Marshal), a short adversarial burst (one target per
# invocation, as go test -fuzz requires; -run NONE skips the unit tests
# where a package holds more than one target). A restore costs about a
# millisecond, so the serve targets cap the minimization of each new
# corpus entry, which otherwise eats the whole burst.
fuzz-smoke:
	$(GO) test -fuzz FuzzParse -fuzztime 5s ./internal/swf
	$(GO) test -run NONE -fuzz FuzzSortJobs -fuzztime 5s ./internal/swf
	$(GO) test -fuzz FuzzReadSchedule -fuzztime 5s ./internal/faults
	$(GO) test -fuzz FuzzReadCSV -fuzztime 5s ./internal/model
	$(GO) test -fuzz FuzzReadDecisionLog -fuzztime 5s ./internal/cloudsim
	$(GO) test -fuzz FuzzPromEscape -fuzztime 5s ./internal/obs
	$(GO) test -run NONE -fuzz FuzzMeasure -fuzztime 5s ./internal/power
	$(GO) test -run NONE -fuzz FuzzDistinctPartitions -fuzztime 5s ./internal/core
	$(GO) test -run NONE -fuzz FuzzQueue -fuzztime 5s ./internal/eventq
	$(GO) test -run NONE -fuzz FuzzReadJournal -fuzztime 5s -fuzzminimizetime 10x ./internal/serve
	$(GO) test -run NONE -fuzz FuzzRestore -fuzztime 5s -fuzzminimizetime 10x ./internal/serve
	$(GO) test -run NONE -fuzz FuzzJournalEncode -fuzztime 5s -fuzzminimizetime 10x ./internal/serve

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run NONE -bench . -benchmem ./...

# bench-alloc compares the optimized allocation search against the
# unoptimized reference search its tests keep as their oracle
# (internal/core/reference_test.go), on the same decisions. The anchors
# leave out BenchmarkAllocateFleet.
bench-alloc:
	$(GO) test -run NONE -bench '^BenchmarkAllocate(Reference)?$$/' -benchmem ./internal/core

# bench-json records the large-simulation benchmarks (optimized event
# loop vs the retained reference, the telemetry-on and sampler-on
# overhead pairs, and the sharded-engine family) as BENCH_sim.json. The
# 100k-server/10M-request SimHuge pair gets its own invocation at
# -benchtime 1x -count 2 — two single-iteration samples pacevm-benchjson
# folds into one entry (at -benchtime 2x inside the main sweep it would
# dominate the suite) — and the -require floor fails the recording if a
# huge entry ever lands on a single noisy sample again. SimPA is the
# perfbench sim-pa workload in-process: PA-0.5 on 660 servers, where
# partition search and the class query do the work; SimPADecisions
# replays that run's recorded decision stream through the partition
# search alone. AllocateFleet is the partition-search layer entry: one
# PA decision against a 660-server fleet; FleetIndexClasses is the
# class query that feeds it, with a few mutations between queries, and
# FleetIndexClassesRetired the same query over the ~40 class sets (18
# live, 3 stale per query) a sim-pa run's index holds.
# These four families, SimLarge, SimLarge4k, SimLargeShards{2,4,8},
# TracePrepare, Measure, CampaignParallel and the eventq layer record
# -count 5, so their entries carry a spread (min_ns_per_op,
# max_ns_per_op) pacevm-benchdiff can judge a change against; SimLarge,
# SimLarge4k and the shard entries run beside SimPA, not in the sweep of
# the rest of the SimLarge family. That sweep records -count 2: the
# SimLarge floor's pattern matches every SimLarge* entry.
# QueueChurn and QueueCancel are the eventq layer: one pop and
# reschedule of a key on a 1,024-key queue, and one move of a pending
# key to a later instant.
# TracePrepare is the set-up layer: generating and preparing the 100k-VM
# trace a sim-pa run uses.
# JournalAppend and JournalAppendFsync are the service's journal layer:
# one place record encoded and written, without and with its fsync.
# CampaignParallel is the model set-up layer: the full-grid campaign
# pacevm-serve and the simulator build their model database from.
# Measure is the meter inside it: one 12-VM mixed experiment metered
# noise-free at the campaign's makespan/4000 interval.
# TracePrepare and CampaignParallel together are the two layers of the
# sim-pa workload's setup_s.
bench-json:
	{ $(GO) test -run NONE -bench 'BenchmarkSim(Large|Trace)' -skip 'BenchmarkSimLarge(4k|Shards[248])?$$' -benchtime 2x -count 2 -benchmem ./internal/cloudsim \
		&& $(GO) test -run NONE -bench 'BenchmarkSimHuge' -benchtime 1x -count 2 -benchmem ./internal/cloudsim \
		&& $(GO) test -run NONE -bench 'BenchmarkSim(Large|Large4k|LargeShards[248]|PA|PADecisions)$$' -benchtime 2x -count 5 -benchmem ./internal/cloudsim \
		&& $(GO) test -run NONE -bench 'BenchmarkQueue(Churn|Cancel)$$' -count 5 -benchmem ./internal/eventq \
		&& $(GO) test -run NONE -bench 'BenchmarkServe(Obs)?$$' -count 2 -benchmem ./internal/serve \
		&& $(GO) test -run NONE -bench 'BenchmarkAllocateFleet' -count 5 -benchmem ./internal/core \
		&& $(GO) test -run NONE -bench 'BenchmarkFleetIndexClasses' -count 5 -benchmem ./internal/strategy \
		&& $(GO) test -run NONE -bench 'BenchmarkTracePrepare' -count 5 -benchmem ./internal/trace \
		&& $(GO) test -run NONE -bench 'BenchmarkJournalAppend' -count 2 -benchmem ./internal/serve \
		&& $(GO) test -run NONE -bench 'BenchmarkMeasure' -count 5 -benchmem ./internal/power \
		&& $(GO) test -run NONE -bench 'BenchmarkCampaignParallel' -count 5 -benchmem .; } \
		| $(GO) run ./cmd/pacevm-benchjson -require 'SimHuge=2' -require 'SimLarge=2' -require 'SimLarge4k=2' -require 'SimPA=2' -require 'SimPADecisions=2' -require 'Serve=2' -require 'ServeObs=2' \
			-require 'SimLargeShards[248]=5' -require 'QueueChurn=5' -require 'QueueCancel=5' -require 'AllocateFleet=2' -require 'FleetIndexClasses=2' -require 'TracePrepare=2' \
			-require 'JournalAppend=2' -require 'Measure=2' -require 'CampaignParallel=2' -o BENCH_sim.json

# bench-diff compares a freshly recorded (or provided) benchmark
# document against the committed BENCH_sim.json baseline and reports
# ns/op regressions beyond the bound: an entry regresses only when its
# new [min, max] ns/op range lies above the old one by more than
# MAX_REGRESS percent (see pacevm-benchdiff). Advisory inside verify — the
# committed baseline may come from different hardware, so it warns, it
# does not gate; run `make bench-json && make bench-diff ADVISORY=` on
# pinned hardware for a hard check. Skips quietly when NEW is absent.
OLD ?= BENCH_sim.json
NEW ?= BENCH_new.json
MAX_REGRESS ?= 10
ADVISORY ?= -advisory
bench-diff:
	@if [ -f "$(NEW)" ]; then \
		$(GO) run ./cmd/pacevm-benchdiff $(ADVISORY) -max-regress $(MAX_REGRESS) "$(OLD)" "$(NEW)"; \
	else \
		echo "bench-diff: $(NEW) not found, skipping (record one with: make bench-json, then mv BENCH_sim.json $(NEW))"; \
	fi

# profile-huge records a CPU profile of the 100k-server/10M-request
# BenchmarkSimHuge and prints the top consumers — the reproducible
# evidence behind the hot-path work (DESIGN.md, "Flat per-request cost
# at fleet scale"). Artifacts: huge.cpu.out + huge.test.bin, inspect
# interactively with `go tool pprof huge.test.bin huge.cpu.out`.
profile-huge:
	$(GO) test -run NONE -bench 'BenchmarkSimHuge$$' -benchtime 1x -cpu 1 -benchmem \
		-cpuprofile huge.cpu.out -o huge.test.bin ./internal/cloudsim
	$(GO) tool pprof -top -nodecount 25 huge.test.bin huge.cpu.out

# profile-pa records a CPU profile of BenchmarkSimPA, the sim-pa
# workload in-process, and prints the top consumers: where a PA
# decision's time goes (partition search, the fleet index's class
# query, model pricing). Artifacts: pa.cpu.out + pa.test.bin, inspect
# interactively with `go tool pprof pa.test.bin pa.cpu.out`.
profile-pa:
	$(GO) test -run NONE -bench 'BenchmarkSimPA$$' -benchtime 4x -cpu 1 -benchmem \
		-cpuprofile pa.cpu.out -o pa.test.bin ./internal/cloudsim
	$(GO) tool pprof -top -nodecount 25 pa.test.bin pa.cpu.out

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# trace records the Fig. 5 SMALLER/FF-3 scenario as a Perfetto-loadable
# Chrome trace (trace.json + trace.json.manifest.json).
trace:
	$(GO) run ./cmd/pacevm-sim -strategy FF-3 -servers 66 -vms 10000 -trace trace.json

clean:
	$(GO) clean ./...
	rm -f cover.out huge.cpu.out huge.test.bin pa.cpu.out pa.test.bin explain-smoke.jsonl explain-smoke.txt
	rm -rf serve-soak-artifacts
