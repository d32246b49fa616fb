//! The timing loop shared by every workload, and the result line.
//!
//! A workload splits each repetition into a *set-up* (generate the
//! topology, dynamics schedule or arrival plan from the seed, then build the
//! nodes and the `Runner`) and a *run* (drive the program to the end and
//! check its outputs). The loop times the two separately, repeats until the
//! measuring window has passed, and reports medians.

use std::time::{Duration, Instant};

use bullet_bench::alloc_track;

use crate::layers::{Layers, Metric};
use crate::stats::{self, digest, MIN_TAIL};

/// At least this many timed repetitions per run, however long each takes.
pub const MIN_REPS: usize = 3;
/// At least this many set-up samples per run; extra set-ups are built and
/// dropped unrun.
pub const MIN_SETUPS: usize = 11;

/// What one repetition of a workload produced, after its checks passed.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Virtual receiver completion times, seconds, pooled over instances.
    /// For service runs: per-swarm median receiver latency since admission.
    pub done_s: Vec<f64>,
    /// Virtual latency since arrival, seconds. Closed runs: every receiver
    /// arrives at t = 0, so this equals `done_s`.
    pub latency_s: Vec<f64>,
    /// Simulated goodput, Mbps (see `README.md` for each workload's
    /// definition).
    pub goodput_mbps: f64,
    /// Receivers (closed runs) or swarm arrivals (service) attempted.
    pub attempted: u64,
    /// Of those, not done when the run ended.
    pub unfinished: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Virtual end time of each instance, seconds.
    pub end_s: Vec<f64>,
    /// Canonical rendering of each instance's report.
    pub canonicals: Vec<String>,
}

impl Outcome {
    /// The digest every repetition of a workload must reproduce.
    pub fn digest(&self) -> u64 {
        digest(&self.canonicals.join("\n"))
    }

    /// Fails unless the p90 of `done_s` and `latency_s` has at least
    /// [`MIN_TAIL`] samples beyond it.
    pub fn check_tail(&self) -> Result<(), String> {
        for (what, n) in [
            ("done", self.done_s.len()),
            ("latency", self.latency_s.len()),
        ] {
            if stats::highest_percentile_with_tail(n, MIN_TAIL) < Some(90) {
                return Err(format!(
                    "{n} {what} samples leave fewer than {MIN_TAIL} beyond p90; pool more"
                ));
            }
        }
        Ok(())
    }
}

/// A benchmark workload.
pub trait Workload {
    /// What set-up hands to the run.
    type Built;

    /// Generates the inputs from `seed` and builds the runners.
    fn setup(&self, seed: u64) -> Self::Built;

    /// Runs to the end and checks the outputs.
    fn run(&self, built: Self::Built) -> Result<Outcome, String>;

    /// Checks made once per run, outside the timed window, against the
    /// first repetition's outcome.
    fn check(&self, _seed: u64, _first: &Outcome) -> Result<(), String> {
        Ok(())
    }

    /// The traced run: the per-layer table, plus the untraced outcome it was
    /// checked against. Fails if the traced output differs from the
    /// untraced one.
    fn traced(&self, seed: u64) -> Result<(Layers, Outcome), String>;
}

/// The result line of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted over the whole run.
    pub attempted: u64,
    /// Operations in repetitions that failed a check.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// keeps. Non-finite values (never produced by a passing run) become 0.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v:?}");
    s.strip_suffix(".0").map_or(s.clone(), str::to_string)
}

/// Times set-up and run of `w` until `window` has passed (at least
/// [`MIN_REPS`] repetitions) and reports the end-to-end metrics.
pub fn measure<W: Workload>(w: &W, seed: u64, window: Duration) -> RunResult {
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut peaks = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut attempted = 0;
    let mut failed = 0;
    let mut error: Option<String> = None;
    while walls.len() < MIN_REPS || started.elapsed() < window {
        alloc_track::reset_peak();
        let t0 = Instant::now();
        let built = w.setup(seed);
        let t1 = Instant::now();
        let result = w.run(built);
        let t2 = Instant::now();
        peaks.push(alloc_track::peak_bytes() as f64);
        setups.push((t1 - t0).as_secs_f64());
        walls.push((t2 - t1).as_secs_f64());
        let result = result.and_then(|o| match &first {
            Some(f) if f.digest() != o.digest() => Err(format!(
                "repetition {} digest {:016x} differs from the first's {:016x}",
                walls.len(),
                o.digest(),
                f.digest()
            )),
            _ => Ok(o),
        });
        match result {
            Ok(o) => {
                attempted += o.attempted;
                first.get_or_insert(o);
            }
            Err(e) => {
                let lost = first.as_ref().map_or(1, |f| f.attempted.max(1));
                attempted += lost;
                failed += lost;
                error = Some(e);
                break;
            }
        }
    }
    while error.is_none() && setups.len() < MIN_SETUPS {
        let t0 = Instant::now();
        drop(w.setup(seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    if let (Some(f), None) = (&first, &error) {
        if let Err(e) = w.check(seed, f) {
            failed += f.attempted;
            error = Some(e);
        }
    }
    if let Some(e) = &error {
        eprintln!("CHECK FAILED: {e}");
    }
    let first = first.unwrap_or_default();
    let events = match first.events {
        0 => String::new(),
        n => format!(" of {n} events"),
    };
    eprintln!(
        "{} repetitions{events}; wall median {:.4} s {walls:.3?}; setup median {:.4} s; \
         digest {:016x}",
        walls.len(),
        stats::median(&walls),
        stats::median(&setups),
        first.digest()
    );
    RunResult {
        correct: error.is_none(),
        attempted: attempted.max(1),
        failed,
        metrics: end_to_end(&first, &walls, &setups, &peaks, error.is_some()),
    }
}

/// The end-to-end metrics of a run whose repetitions all reproduced
/// `outcome`.
fn end_to_end(
    outcome: &Outcome,
    walls: &[f64],
    setups: &[f64],
    peaks: &[f64],
    broken: bool,
) -> Vec<Metric> {
    let pct = |v: &[f64], p: f64| {
        if v.is_empty() {
            0.0
        } else {
            stats::percentile(v, p)
        }
    };
    let unfinished = if broken {
        outcome.attempted.max(1)
    } else {
        outcome.unfinished
    };
    vec![
        Metric::new("wall_s", stats::median(walls), "s"),
        Metric::new("setup_s", stats::median(setups), "s"),
        Metric::new("peak_heap_mb", stats::median(peaks) / 1e6, "MB"),
        Metric::new("sim_done_p50_s", pct(&outcome.done_s, 50.0), "s"),
        Metric::new("sim_done_p90_s", pct(&outcome.done_s, 90.0), "s"),
        Metric::new("sim_latency_p50_s", pct(&outcome.latency_s, 50.0), "s"),
        Metric::new("sim_latency_p90_s", pct(&outcome.latency_s, 90.0), "s"),
        Metric::new("sim_goodput_mbps", outcome.goodput_mbps, "Mbps"),
        // Add-one smoothing keeps the share positive (so a relative bound
        // means something) while any real failure at least doubles it.
        Metric::new(
            "incomplete_frac",
            (unfinished + 1) as f64 / (outcome.attempted + 1) as f64,
            "fraction",
        ),
    ]
}

/// Runs the traced variant of `w` and reports the per-layer table.
pub fn trace<W: Workload>(w: &W, seed: u64) -> RunResult {
    match w.traced(seed) {
        Ok((layers, outcome)) => {
            eprintln!(
                "traced run: overhead {:.3}x, digest {:016x}",
                layers.traced_wall_s / layers.untraced_wall_s.max(1e-9),
                outcome.digest()
            );
            RunResult {
                correct: true,
                attempted: outcome.attempted.max(1),
                failed: 0,
                metrics: layers.metrics(),
            }
        }
        Err(e) => {
            eprintln!("CHECK FAILED: {e}");
            RunResult {
                correct: false,
                attempted: 1,
                failed: 1,
                metrics: Layers::default().metrics(),
            }
        }
    }
}
