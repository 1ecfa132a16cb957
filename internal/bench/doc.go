// Package bench regenerates every table and figure of the paper's
// evaluation from the simulated platforms, and measures the scheduler
// layers grown on top of them.
//
// Two kinds of artifact live here:
//
//   - The paper tables (T1–T12, A1/A2): one generator per artifact,
//     shared by the fpgasim command and the Go benchmark harness.
//
//   - The scheduler suites (S1–S9): seeded, reproducible drives of the
//     multi-system pool — S2 placement, S3 prefetch, S4 region
//     granularity, S6 sharded-dispatch scaling, S7 fault availability,
//     S8 compressed/DMA load paths, S9 latency SLOs.
//
// Each suite is one Suite value: a Workload, a list of Cases (one table
// row each) and the functions that read a Run's scheduler Stats into
// table cells and notes. Drive is the one boot → submit → quiesce path
// every case runs through; only its submit loop depends on the case's
// DriveKind. A suite lowers its runs to Rows, the single wire record
// type, and a Writer emits rows in two on-disk forms: the committed
// BENCH_sched.json baseline that cmd/benchdiff gates CI on, and the
// append-only per-commit history store (artifacts/bench/history.jsonl)
// that cmd/benchboard renders as the repo's perf trajectory. The tolerance
// rules both consumers share live in the nested package
// internal/bench/gate.
package bench
