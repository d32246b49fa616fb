//! `bullet-bench` — the experiment harness that regenerates every figure of
//! the paper's evaluation.
//!
//! * [`cdf`] — series/figure data structures, CDFs, summary statistics;
//! * [`opts`] — the tiny shared figure-option surface of the `lab` CLI;
//! * [`systems`] — uniform runners for Bullet′, Bullet, BitTorrent and
//!   SplitStream over a topology and change schedule;
//! * [`tap`] — the trace tap: every run a figure makes goes through one
//!   `drive` function, which observes it (trace ring, stats probe,
//!   profiler) only inside [`tap::capture`] — what `lab trace` uses;
//! * [`bounds`] — the analytic reference curves of Fig 4;
//! * [`alloc_track`] — the counting global allocator behind the perf
//!   records' allocation counts and peak-heap-bytes figures;
//! * [`views`] — the serde views of the committed `BENCH_events.json` /
//!   `BENCH_scale.json` / `BENCH_service.json` records (field order is what
//!   ci.sh greps);
//! * [`experiments`] — one function per figure (4–15 from the paper, plus
//!   the beyond-the-paper scenarios: 16/17 crash-churn and flash-crowd, 5ts
//!   the probe-driven bandwidth-over-time view of the dynamic scenario, 18
//!   two meshes sharing one core bottleneck, 19 cross traffic vs Bullet′
//!   adaptivity, 21/22 the open-system service mode — see
//!   `docs/SERVICE_MODE.md`). `docs/EXPERIMENTS.md` is the book mapping
//!   every scenario to its paper section, sweep and expected result.
//!
//! The `figNN` binaries live in the `bullet_lab` crate as one-line wrappers
//! over its scenario registry (equivalent to `lab run <name>`); this crate
//! keeps `lt_overhead` (the rateless-code reception overhead quoted in
//! §2.2), `diagnose`, `bench_events` (the fixed-seed scheduler-efficiency
//! record `BENCH_events.json` that ci.sh gates on), `bench_scale` (the
//! `BENCH_scale.json` swarm-scaling trajectory, gated at N = 1 000) and
//! `bench_service` (the `BENCH_service.json` open-system sweep, gated on
//! sustained goodput at the top load). Criterion micro-benchmarks for the
//! core data structures live in `benches/`.

pub mod alloc_track;
pub mod bounds;
pub mod cdf;
pub mod experiments;
pub mod opts;
pub mod systems;
pub mod tap;
pub mod views;
pub mod warmup;

pub use cdf::{improvement_at, Figure, Series};
pub use opts::{emit, CommonOpts};
pub use systems::{
    run_bullet_prime_churn, run_bullet_prime_cross, run_bullet_prime_timeseries,
    run_bullet_prime_with, run_concurrent_meshes, run_system, SystemKind, SystemRun,
};
pub use warmup::{WarmPrefix, FIG05W_VARIANTS, FIG05W_WARMUP_SECS};
