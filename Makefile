.PHONY: build test race vet fmt loc bench benchgate benchboard-md tracedemo fuzz profile gobench sim sched

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

# Fail when any file is not gofmt-clean (CI gate).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Count the non-test Go lines of the tracked files, outside the benchmark/
# module and inside it: the line count a simplification is judged by. The
# third line counts the tracked test Go lines outside benchmark/.
loc:
	@echo "non-test Go lines outside benchmark/: $$(git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^benchmark/' | xargs cat | wc -l)"
	@echo "non-test Go lines in benchmark/:      $$(git ls-files 'benchmark/*.go' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@echo "test Go lines outside benchmark/:     $$(git ls-files '*_test.go' | grep -v '^benchmark/' | xargs cat | wc -l)"

# Write the scheduler perf trajectory: the S3 stream-planning, placement
# and prefetch comparison (complete-only vs planner-backed, lru vs
# mincost, visible config time with and without speculative loads), the
# S4 region-granularity comparison (single- vs dual-region boards at equal
# total fabric), the S6 scaling sweep (sharded dispatch throughput and
# sojourn percentiles vs offered load, on its own committed 32-board
# capacity spec), the S7 fault sweep (availability under injected upsets
# with scrubbing), the S8 load-path comparison (complete vs diff vs
# compressed vs compressed+DMA) on the seeded 60-request mixed workload,
# and the S9 latency-SLO replay (deterministic sojourn percentiles over
# the S6 arrival traces), as tables on stdout and BENCH_sched.json. Every
# row's metrics are also appended, keyed by the current commit, to the
# per-commit history store that cmd/benchboard renders — so the perf
# trajectory survives baseline rewrites.
bench:
	go run ./cmd/fpgad -compare -json BENCH_sched.json \
		-history artifacts/bench/history.jsonl -sha $$(git rev-parse --short HEAD)

# CI bench-regression gate: rerun the comparison into a scratch file and
# fail if any gated metric regresses past tolerance against the committed
# BENCH_sched.json on any configuration. gate.Gated names the metrics:
# visible config time and bytes streamed on every row, and every recorded
# metric of the deterministic suites — S3/S4 hidden config, S7
# availability and repair time, S8 overlap and availability, and the S9
# sojourn p50/p95/p99 (the repo's latency SLOs, at a 1% band). The rest
# gate at 15%; S6's all-hit zeros gate absolutely, while its
# host-dependent throughput and percentiles stay informational. The gate writes nothing
# but its scratch file, which it removes. After an intended perf change,
# run `make bench` and commit the refreshed baseline.
benchgate:
	go run ./cmd/fpgad -compare -json BENCH_fresh.json
	go run ./cmd/benchdiff -baseline BENCH_sched.json -fresh BENCH_fresh.json; \
		rc=$$?; rm -f BENCH_fresh.json; exit $$rc

# Render the perf trajectory from the history store: the markdown table
# and one SVG per (suite, metric) under artifacts/bench/board (uploaded by
# CI), with every point the gate would fail against its predecessor
# flagged.
benchboard-md:
	go run ./cmd/benchboard -md artifacts/bench/board/TRAJECTORY.md -svg artifacts/bench/board

# Render a Perfetto-loadable Chrome trace of the S8 paired drive (the
# densest deterministic load-path exercise: differential, compressed and
# DMA-overlapped streams on sibling regions). Open artifacts/trace/s8.json
# in https://ui.perfetto.dev or chrome://tracing.
tracedemo:
	mkdir -p artifacts/trace
	go run ./cmd/fpgad -compare -trace artifacts/trace/s8.json > /dev/null
	@echo "trace: artifacts/trace/s8.json"

# Fuzz smoke: the loader must reject damaged differential streams without
# wedging (CRC or state-machine error, never silent misconfiguration),
# multi-region differentials must stay inside their region's frame spans,
# damaged compressed containers must never decode to divergent frames,
# the loader's per-frame CRC fold must equal the per-word fold over
# fuzzed frames, bands, starting CRCs, guard trips and flush points,
# arbitrary words pushed through the bus, bridge, HWICAP and loader by
# cpu.StoreStream must leave exactly the state one SW per word leaves, and
# arbitrary words fed from memory into the OPB Dock by cpu.Feed must leave
# exactly the state the driver's per-word loop leaves.
# Minimizing a new-coverage input is capped at 10 runs, so each target
# spends its 10 seconds exploring instead of minimizing.
fuzz:
	go test -run '^$$' -fuzz FuzzLoaderDifferentialStream -fuzztime 10s -fuzzminimizetime 10x ./internal/bitstream
	go test -run '^$$' -fuzz FuzzCompressedStream -fuzztime 10s -fuzzminimizetime 10x ./internal/bitstream
	go test -run '^$$' -fuzz FuzzFrameFold -fuzztime 10s -fuzzminimizetime 10x ./internal/bitstream
	go test -run '^$$' -fuzz FuzzRegionPlanner -fuzztime 10s -fuzzminimizetime 10x ./internal/plan
	go test -run '^$$' -fuzz FuzzStoreStream -fuzztime 10s -fuzzminimizetime 10x ./internal/cpu
	go test -run '^$$' -fuzz FuzzFeed -fuzztime 10s -fuzzminimizetime 10x ./internal/cpu

# Profile the sharded dispatcher under a saturating open-loop drive: CPU
# and mutex-contention profiles land in artifacts/profile for
# `go tool pprof`. For a live view use `go run ./cmd/fpgad -pprof
# localhost:6060 ...` instead.
profile:
	mkdir -p artifacts/profile
	go run ./cmd/fpgad -sys32 8 -n 4000 -mix jenkins=1 -batch 1 -seed 7 \
		-shards 4 -rate 2000000 \
		-cpuprofile artifacts/profile/cpu.pprof -mutexprofile artifacts/profile/mutex.pprof
	@echo "profiles: artifacts/profile/cpu.pprof artifacts/profile/mutex.pprof"

# Go benchmark harness (paper tables + scheduler economics).
gobench:
	go test -bench . -benchtime 1x ./...

# Regenerate the paper's tables and figures.
sim:
	go run ./cmd/fpgasim

# Drive a mixed workload through the reconfiguration scheduler.
sched:
	go run ./cmd/fpgad -sys32 2 -sys64 2 -n 48 -batch 4 -policy mincost \
		-mix "sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1"
