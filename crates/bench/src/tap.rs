//! The trace tap: every run a figure makes, observed exactly as it ran.
//!
//! Every closed-system run in this crate — each [`run_system`] arm, the
//! `run_bullet_prime_*` family, the concurrent meshes, fig20's swarm and
//! fig05w's staged runner — goes through one function, `drive`. With no
//! tap installed `drive` only runs the runner, so figure output and timings
//! are those of the bare run. (A fork resumed from fig05w's warm-up
//! checkpoint by the sweep executor is a continuation, not a run, and is not
//! driven.) Inside [`capture`], a scoped thread-local tap
//! is installed and `drive` attaches to each run:
//!
//! * a [`RingSink`] capped at the tap's ring capacity (on overflow the
//!   oldest records drop);
//! * the built-in stats probe on the tap's tick, unless the run already
//!   records a probe series;
//! * the virtual-time profiler;
//!
//! and hands the records, the report and the profile back as one
//! [`CapturedRun`] per run, in the order the figure made them. `lab trace`
//! is `capture` around `Scenario::run`.
//!
//! Observation is passive (`docs/OBSERVABILITY.md`): a captured run's
//! completion times are the untraced run's. Its event count includes the
//! probe's ticks when the tap installed the probe.
//!
//! [`run_system`]: crate::systems::run_system

use std::cell::RefCell;
use std::rc::Rc;

use desim::SimDuration;
use netsim::{ProfileReport, Protocol, RingSink, RunReport, Runner, TraceRecord, TraceSink};

/// Virtual seconds per profiler bucket of a captured run.
const PROFILE_BUCKET_SECS: f64 = 10.0;

/// One run observed by the tap.
#[derive(Debug)]
pub struct CapturedRun {
    /// The run's report, with the probe's time series attached.
    pub report: RunReport,
    /// The profiler's wall-clock attribution.
    pub profile: Option<ProfileReport>,
    /// Number of node slots in the run.
    pub nodes: usize,
    /// The retained trace records, oldest first.
    pub records: Vec<TraceRecord>,
    /// Records the sink accepted in total.
    pub recorded: u64,
    /// Records the ring dropped on overflow (oldest first).
    pub dropped: u64,
}

struct Tap {
    ring: usize,
    tick: SimDuration,
    runs: Vec<CapturedRun>,
}

thread_local! {
    static TAP: RefCell<Option<Tap>> = const { RefCell::new(None) };
}

/// Runs `body` with the tap installed on this thread and returns its result
/// together with every run `body` drove, in order. `ring` caps the records
/// kept per run; `tick` is the probe interval for runs that record no probe
/// series of their own. Runs on other threads are not captured.
///
/// # Panics
///
/// A run driven inside `body` panics if `ring` is zero.
pub fn capture<R>(
    ring: usize,
    tick: SimDuration,
    body: impl FnOnce() -> R,
) -> (R, Vec<CapturedRun>) {
    /// Restores the enclosing tap (normally none) even if `body` panics.
    struct Restore(Option<Tap>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TAP.with(|t| *t.borrow_mut() = self.0.take());
        }
    }
    let tap = Tap {
        ring,
        tick,
        runs: Vec::new(),
    };
    let _restore = Restore(TAP.with(|t| t.borrow_mut().replace(tap)));
    let out = body();
    let runs = TAP
        .with(|t| t.borrow_mut().take())
        .map_or_else(Vec::new, |tap| tap.runs);
    (out, runs)
}

/// A [`TraceSink`] forwarding into a shared ring, so the records outlive the
/// runner's boxed sink.
struct SharedSink(Rc<RefCell<RingSink>>);

impl TraceSink for SharedSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.0.borrow_mut().record(rec);
    }

    fn recorded(&self) -> u64 {
        self.0.borrow().recorded()
    }

    fn dropped(&self) -> u64 {
        self.0.borrow().dropped()
    }
}

/// Runs `runner` through `run` — the one path every closed-system run of
/// this crate takes. Observes the run only while a [`capture`] is active on
/// this thread.
pub(crate) fn drive<P: Protocol>(
    runner: &mut Runner<P>,
    run: impl FnOnce(&mut Runner<P>) -> RunReport,
) -> RunReport {
    let Some((ring, tick)) = TAP.with(|t| t.borrow().as_ref().map(|tap| (tap.ring, tap.tick)))
    else {
        return run(runner);
    };
    let shared = Rc::new(RefCell::new(RingSink::new(ring)));
    runner.set_trace_sink(Box::new(SharedSink(Rc::clone(&shared))));
    runner.enable_profiling(PROFILE_BUCKET_SECS);
    if runner.probe_interval().is_none() {
        runner.record_timeseries(tick);
    }
    let report = run(runner);
    let profile = runner.take_profile();
    drop(runner.take_trace_sink());
    let ring = Rc::try_unwrap(shared)
        .unwrap_or_else(|_| unreachable!("the runner held the only other handle"))
        .into_inner();
    let (recorded, dropped) = (ring.recorded(), ring.dropped());
    let mut records = ring.into_records();
    records.shrink_to_fit();
    let captured = CapturedRun {
        report: report.clone(),
        profile,
        nodes: runner.nodes().len(),
        records,
        recorded,
        dropped,
    };
    TAP.with(|t| {
        if let Some(tap) = t.borrow_mut().as_mut() {
            tap.runs.push(captured);
        }
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::{run_system, SystemKind};
    use desim::RngFactory;
    use dissem_codec::FileSpec;
    use netsim::topology;

    fn bittorrent_run() -> crate::SystemRun {
        let rng = RngFactory::new(5);
        run_system(
            SystemKind::BitTorrent,
            topology::modelnet_mesh(5, 0.0, &rng),
            FileSpec::new(64 * 1024, 16 * 1024),
            &rng,
            &Vec::new(),
            SimDuration::from_secs(1800),
        )
    }

    #[test]
    fn runs_outside_a_capture_are_not_observed() {
        let (untraced, runs) = capture(1 << 16, SimDuration::from_secs(1), || {
            // A capture only sees this thread's runs.
            std::thread::spawn(bittorrent_run).join().unwrap()
        });
        assert!(runs.is_empty());
        let (traced, runs) = capture(1 << 16, SimDuration::from_secs(1), bittorrent_run);
        assert_eq!(runs.len(), 1);
        assert_eq!(traced.times, untraced.times, "observation is passive");
        let run = &runs[0];
        assert_eq!(run.nodes, 5);
        assert!(
            run.report.timeseries.is_some(),
            "the tap installs the probe"
        );
        assert!(run.profile.is_some());
        assert_eq!(run.recorded, run.records.len() as u64);
        // The tap is gone once the capture returns.
        assert!(TAP.with(|t| t.borrow().is_none()));
    }
}
