.PHONY: build test race vet fmt fmtcheck bench benchgate benchboard benchboard-md tracedemo fuzz profile replay gobench sim sched

# Bench samples per nondeterministic suite (S2/S6): `make bench K=3`
# reruns them K times and appends min/median noise entries to the history.
K ?= 1

# Archived per-commit snapshots kept under artifacts/bench; the history
# store carries the full trajectory, so retention only bounds disk.
KEEP ?= 10

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

fmtcheck: fmt

# Write the scheduler perf trajectory: the S2 placement comparison
# (complete-only vs planner-backed, lru vs mincost), the S3 prefetch
# comparison (visible config time with and without speculative loads), the
# S4 region-granularity comparison (single- vs dual-region boards at equal
# total fabric), the S6 scaling sweep (sharded dispatch throughput and
# sojourn percentiles vs offered load, on its own committed 32-board
# capacity spec), the S7 fault sweep (availability under injected upsets
# with scrubbing), the S8 load-path comparison (complete vs diff vs
# compressed vs compressed+DMA) on the seeded 60-request mixed workload,
# and the S9 latency-SLO replay (deterministic sojourn percentiles over
# the S6 arrival traces), as tables on stdout and BENCH_sched.json. Each
# refresh is also archived under artifacts/bench keyed by the current
# commit (pruned to the newest KEEP), every record's metrics are appended
# to the per-commit history store that cmd/benchboard plots, and the
# README sparkline section is refreshed — so the perf trajectory survives
# baseline rewrites.
bench:
	mkdir -p artifacts/bench
	go run ./cmd/fpgad -compare -json BENCH_sched.json \
		-history artifacts/bench/history.jsonl -sha $$(git rev-parse --short HEAD) -samples $(K)
	cp BENCH_sched.json artifacts/bench/BENCH_sched.$$(git rev-parse --short HEAD).json
	go run ./cmd/benchboard -prune $(KEEP) -readme README.md

# CI bench-regression gate: rerun the comparison into a scratch file and
# fail if visible config time or bytes streamed regress past tolerance
# against the committed BENCH_sched.json on any configuration (15% on the
# deterministic S3, S4, S7 and S8 rows; the concurrency-noisy S2 rows carry
# a wider per-record band; the S6 rows pin their all-hit zeros absolutely —
# any config byte on the capacity drive's request path fails the gate —
# while their host-dependent throughput fields stay informational). After
# an intended perf change, run `make bench` and commit the refreshed
# baseline. The deterministic S9 rows additionally gate their sojourn
# p50/p95/p99 columns — the repo's latency SLOs.
benchgate:
	mkdir -p artifacts/bench
	go run ./cmd/fpgad -compare -json BENCH_fresh.json
	go run ./cmd/benchdiff -baseline BENCH_sched.json -fresh BENCH_fresh.json -max-regress 15 \
		-history artifacts/bench/history.jsonl -sha $$(git rev-parse --short HEAD); \
		rc=$$?; rm -f BENCH_fresh.json; exit $$rc

# Serve the perf-trajectory dashboard: per-commit config-time /
# wire-bytes / availability / sustained-rate curves from the history
# store, regression points ringed by the same band math as the gate.
benchboard:
	go run ./cmd/benchboard -extract
	go run ./cmd/benchboard -serve localhost:8321

# Render the trajectory statically: lift any archived snapshots into the
# history store, then write the markdown table and one SVG per
# (suite, metric) under artifacts/bench/board (uploaded by CI).
benchboard-md:
	go run ./cmd/benchboard -extract \
		-md artifacts/bench/board/TRAJECTORY.md -svg artifacts/bench/board

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
# and damaged compressed containers must never decode to divergent frames.
fuzz:
	go test -run '^$$' -fuzz FuzzLoaderDifferentialStream -fuzztime 10s ./internal/bitstream
	go test -run '^$$' -fuzz FuzzCompressedStream -fuzztime 10s ./internal/bitstream
	go test -run '^$$' -fuzz FuzzRegionPlanner -fuzztime 10s ./internal/plan

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

# Fault replay: generate the seeded S7 upset campaign as a JSONL artifact,
# then replay it against the scheduled pool and write the availability
# records. Both steps are deterministic for a fixed seed: rerunning
# reproduces artifacts/fault-replay byte for byte.
replay:
	mkdir -p artifacts/fault-replay
	go run ./cmd/faultreplay -scenario sweep -n 60 -seed 7 \
		-out artifacts/fault-replay/fault_scenarios.jsonl
	go run ./cmd/faultreplay -scenario sweep -n 60 -seed 7 \
		-replay artifacts/fault-replay/fault_scenarios.jsonl \
		-json artifacts/fault-replay/BENCH_replay.json

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
