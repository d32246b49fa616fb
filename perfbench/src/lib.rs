//! The repository benchmark: four workloads of the Bullet′ emulator, timed
//! end to end and split by layer from outside the program.
//!
//! `main.rs` parses the command line; [`measure`] holds the timing loop and
//! the result line; [`closed`], [`service`] and [`sweep`] are the
//! workloads; [`hooks`] and [`layers`] build the per-layer table of a traced
//! run. See `README.md` in this directory for what each metric means.

pub mod closed;
pub mod hooks;
pub mod layers;
pub mod measure;
pub mod service;
pub mod stats;
pub mod sweep;

use std::time::Duration;

use measure::RunResult;

/// Runs workload `name`: timed for `window` when `traced` is false,
/// otherwise the single traced run. `None` for an unknown name.
pub fn run_workload(name: &str, seed: u64, window: Duration, traced: bool) -> Option<RunResult> {
    fn go<W: measure::Workload>(w: &W, seed: u64, window: Duration, traced: bool) -> RunResult {
        if traced {
            measure::trace(w, seed)
        } else {
            measure::measure(w, seed, window)
        }
    }
    Some(match name {
        "dynamics" => go(&closed::Closed::dynamics(), seed, window, traced),
        "swarm" => go(&closed::Closed::swarm(), seed, window, traced),
        "service" => go(&service::Service::standard(), seed, window, traced),
        "paper_sweep" => go(&sweep::PaperSweep, seed, window, traced),
        _ => return None,
    })
}
