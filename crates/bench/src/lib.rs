//! Benchmark harness crate. The Criterion benches live in `benches/`:
//!
//! * `figures` — one benchmark per paper table/figure, each running the
//!   corresponding experiment at quick (scaled-down) scale;
//! * `micro` — microbenchmarks of the hot structures (TLB, cuckoo filter,
//!   reuse tracker, event queue, page table, workload generator);
//! * `engine` — microbenchmarks of the calendar event queue's regimes
//!   (ring fast path, same-cycle batch drain, wraparound, overflow
//!   promotion).
//!
//! The paper-scale experiment runs are produced by the `figures` binary of
//! the `least-tlb` crate, not by Criterion (they take seconds to minutes
//! per run and are not statistical microbenchmarks). End-to-end host
//! speed is measured by the same-host A/B benchmark in `perfbench/`
//! (see `perfbench/README.md`), not here.

#![forbid(unsafe_code)]
