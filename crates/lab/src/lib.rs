//! `bullet-lab` — the scenario lab: every experiment of the evaluation grid
//! as a named, sweepable, parallel-executable scenario.
//!
//! The paper's evaluation (§4) is a grid of *scenario × parameter × seed*
//! cells. This crate turns that grid into data and machinery:
//!
//! * [`scenario`] — the declarative [`Scenario`] model: name, system set,
//!   topology, dynamics, default parameter sweep and seed plan;
//! * [`registry`] — the standard [`Registry`] of scenarios (Figures 4–15 of
//!   the paper plus the beyond-the-paper crash-wave, flash-crowd and
//!   probe-driven time-series scenarios);
//! * [`executor`] — the parallel sweep executor: a work-stealing
//!   `std::thread` pool over (point, seed) cells whose merged output is
//!   **byte-identical for any thread count**, because every cell is an
//!   independent deterministic simulation and results merge by cell index.
//!   Scenarios with a warm-up split (`fig05w`) additionally share each cell
//!   group's warm-up prefix: the executor simulates it once, checkpoints the
//!   runner (`netsim::snapshot`), and forks every cell from the snapshot —
//!   same canonical bytes, less wall clock;
//! * [`cli`] — the `lab` binary (`list` / `run` / `sweep` / `bench` /
//!   `serve` / `trace`);
//! * [`serve`] — the `lab serve` subcommand: open-system service runs
//!   (fig21/fig22) driven by `netsim::service`'s generator-admitted swarms,
//!   reported as sustained goodput and per-cohort completion percentiles
//!   (see `docs/SERVICE_MODE.md`);
//! * [`trace_cmd`] — the `lab trace` subcommand: every run of a scenario,
//!   exactly as `lab run` makes it, with the structured trace sink, stats
//!   probe and virtual-time profiler enabled; per-run summary, JSONL export
//!   and the probe replay cross-check (see `docs/OBSERVABILITY.md`).
//!
//! The experiment bodies themselves stay in `bullet_bench::experiments`;
//! run-time observation (goodput-over-time and friends) comes from
//! `netsim::probe` via the `fig05ts` scenario.

pub mod cli;
pub mod executor;
pub mod registry;
pub mod scenario;
pub mod serve;
pub mod trace_cmd;

pub use cli::lab_main;
pub use executor::{run_indexed, run_sweep, run_sweep_with, CellReport, SweepReport};
pub use registry::Registry;
pub use scenario::{
    DynamicsKind, ParamPoint, Scenario, SeedPlan, SweepSpec, SystemSet, TopologyKind, Warmup,
};
pub use serve::{run_serve, ServeCell, ServeRun};
pub use trace_cmd::{check_replay, replay_is_strict, traced_runs};
