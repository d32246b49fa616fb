//! Warm-prefix support: the snapshot/fork side of the sweep executor.
//!
//! The `fig05w` scenario family shares one expensive warm-up — topology
//! construction plus the join phase of a Bullet′ swarm — across several
//! cells that differ only in the dynamics applied *after* the split point.
//! Instead of re-simulating the identical prefix per cell, the lab executor
//! simulates it once per (parameters, seed) group via [`fig05w_prefix`],
//! checkpoints the runner ([`netsim::Runner::checkpoint`]) into a
//! [`WarmPrefix`], and forks every cell of the group from a clone of the
//! snapshot ([`fig05w_fork`]). [`fig05w_fresh`] is the oracle: the same cell
//! simulated uninterrupted from t = 0. The snapshot contract guarantees the
//! two produce byte-identical canonical figures — `lab bench --snapshot`
//! re-checks that equivalence on every CI run.
//!
//! The split point is [`FIG05W_WARMUP_SECS`] virtual seconds: late enough
//! that the mesh has formed and transfers are in flight (the snapshot is
//! taken mid-download, not at a trivial instant), early enough that the
//! shared prefix stays a prefix — every dynamics variant's first scheduled
//! change lands strictly after it.

use bullet_prime::{BulletPrimeNode, Config};
use desim::{RngFactory, SimDuration, SimTime};
use dissem_codec::FileSpec;
use netsim::{topology, ChangeSchedule, RunReport, Runner, Snapshot};

use crate::cdf::{Figure, Series};
use crate::opts::CommonOpts;
use crate::systems::collect_times;
use crate::tap::drive;

/// Virtual seconds of shared warm-up before the `fig05w` variants diverge.
/// Every variant's first bandwidth change is scheduled strictly after this
/// instant, so the prefix is genuinely common to all cells of a group.
pub const FIG05W_WARMUP_SECS: f64 = 10.0;

/// The `fig05w` dynamics variants, keyed by sweep-point label: no changes
/// after the warm-up, the paper's 20 s correlated-decrease period, and an
/// aggressive 8 s period.
pub const FIG05W_VARIANTS: [&str; 3] = ["calm", "paper", "storm"];

/// One simulated-and-checkpointed warm-up, shared by every cell of a sweep
/// group. Produced by a scenario's `prefix` hook, consumed (via
/// [`Snapshot::clone`]) by its `fork` hook once per cell.
pub struct WarmPrefix {
    /// The checkpoint every cell of the group resumes from.
    pub snap: Snapshot<BulletPrimeNode>,
    /// Virtual seconds of warm-up the snapshot contains.
    pub warmup_secs: f64,
}

/// Builds the `fig05w` runner at t = 0: Bullet′ on the standard lossy
/// ModelNet mesh, with the stats probe installed (so forking exercises probe
/// state too). Returns the runner and the resolved node count.
fn build(opts: &CommonOpts) -> (Runner<BulletPrimeNode>, usize) {
    let nodes = opts.nodes_or(20, 100);
    let file = FileSpec::new(opts.file_bytes_or(4.0, 100.0), opts.block_bytes_or(16));
    let rng = RngFactory::new(opts.seed);
    let topo = topology::modelnet_mesh(nodes, 0.03, &rng);
    let cfg = Config::new(file);
    let mut runner = bullet_prime::build_runner(topo, &cfg, &rng);
    runner.record_timeseries(SimDuration::from_secs_f64(opts.tick.unwrap_or(2.0)));
    (runner, nodes)
}

/// The bandwidth-change schedule of one `fig05w` variant, shifted so every
/// entry lands strictly after the warm-up split point.
///
/// # Panics
///
/// Panics on a label outside [`FIG05W_VARIANTS`] — sweep points and variants
/// are defined together in the scenario registry, so a mismatch is a bug.
fn variant_schedule(
    label: &str,
    nodes: usize,
    opts: &CommonOpts,
    rng: &RngFactory,
) -> ChangeSchedule {
    let period = match label {
        "calm" => return Vec::new(),
        "paper" => 20.0,
        "storm" => 8.0,
        other => panic!("unknown fig05w variant '{other}' (expected one of {FIG05W_VARIANTS:?})"),
    };
    let shift = SimDuration::from_secs_f64(FIG05W_WARMUP_SECS);
    let horizon = (opts.time_limit - FIG05W_WARMUP_SECS).max(0.0);
    netsim::dynamics::correlated_decrease_schedule(
        nodes,
        SimDuration::from_secs_f64(period),
        SimDuration::from_secs_f64(horizon),
        rng,
    )
    .into_iter()
    .map(|(at, batch)| (at + shift, batch))
    .collect()
}

/// Simulates the shared warm-up of one `fig05w` cell group and checkpoints
/// it. The returned prefix is forked (never mutated) by every cell of the
/// group.
pub fn fig05w_prefix(opts: &CommonOpts) -> WarmPrefix {
    let (mut runner, _) = build(opts);
    runner.advance_until(SimTime::from_secs_f64(FIG05W_WARMUP_SECS));
    WarmPrefix {
        snap: runner.checkpoint(),
        warmup_secs: FIG05W_WARMUP_SECS,
    }
}

/// Runs one `fig05w` cell by forking the group's warm prefix: resume a clone
/// of the snapshot, schedule the variant's post-split dynamics, run to the
/// time limit. Canonically byte-identical to [`fig05w_fresh`] with the same
/// options and label.
pub fn fig05w_fork(prefix: &WarmPrefix, opts: &CommonOpts, label: &str) -> Figure {
    let nodes = opts.nodes_or(20, 100);
    let mut runner = Runner::resume(prefix.snap.clone());
    figure(label, nodes, &run_variant(&mut runner, label, nodes, opts))
}

/// Runs one `fig05w` cell uninterrupted from t = 0 — the sharing-off oracle.
/// The warm-up is advanced as a stage (no checkpoint), the variant's
/// dynamics are scheduled at the same quiescent instant the forked path
/// schedules them, and the run continues to the time limit in one runner.
pub fn fig05w_fresh(opts: &CommonOpts, label: &str) -> Figure {
    let (mut runner, nodes) = build(opts);
    let report = drive(&mut runner, |runner| {
        runner.advance_until(SimTime::from_secs_f64(FIG05W_WARMUP_SECS));
        run_variant(runner, label, nodes, opts)
    });
    figure(label, nodes, &report)
}

/// The post-split stage both paths share: schedules `label`'s dynamics at
/// the quiescent split instant and runs to the time limit.
fn run_variant(
    runner: &mut Runner<BulletPrimeNode>,
    label: &str,
    nodes: usize,
    opts: &CommonOpts,
) -> RunReport {
    let rng = RngFactory::new(opts.seed);
    for (at, batch) in variant_schedule(label, nodes, opts, &rng) {
        runner.schedule_link_change(at, batch);
    }
    runner.run_until(SimTime::from_secs_f64(opts.time_limit))
}

/// Renders one variant's report: the receivers' download-time CDF plus the
/// mean-goodput-over-time curve from the probe series (which spans the whole
/// run, warm-up included, on both the forked and the fresh path).
fn figure(label: &str, nodes: usize, report: &RunReport) -> Figure {
    let run = collect_times(report);
    let mut fig = Figure::new(
        "Figure 5w",
        format!(
            "download times under '{label}' dynamics after a shared \
             {FIG05W_WARMUP_SECS:.0} s warm-up ({nodes} nodes)"
        ),
    );
    fig.push(run.cdf(format!("BulletPrime [{label}]")));
    if let Some(series) = &report.timeseries {
        fig.push(Series::xy(
            "mean receiver goodput (Mbps)",
            series.mean_over_active(1, |n| n.goodput_bps / 1e6),
        ));
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CommonOpts {
        CommonOpts {
            nodes: Some(6),
            file_mb: Some(0.25),
            time_limit: 1800.0,
            ..CommonOpts::default()
        }
    }

    #[test]
    fn forked_cell_matches_the_uninterrupted_run() {
        let opts = tiny();
        let prefix = fig05w_prefix(&opts);
        for label in FIG05W_VARIANTS {
            let forked = fig05w_fork(&prefix, &opts, label);
            let fresh = fig05w_fresh(&opts, label);
            assert_eq!(
                format!("{forked:?}"),
                format!("{fresh:?}"),
                "variant '{label}' diverged between fork and fresh"
            );
        }
    }

    #[test]
    fn variants_actually_diverge_after_the_split() {
        let opts = tiny();
        let prefix = fig05w_prefix(&opts);
        let calm = fig05w_fork(&prefix, &opts, "calm");
        let storm = fig05w_fork(&prefix, &opts, "storm");
        assert_ne!(
            format!("{calm:?}"),
            format!("{storm:?}"),
            "calm and storm dynamics produced identical figures — the \
             schedules are not taking effect"
        );
    }

    #[test]
    fn every_variant_schedule_starts_after_the_warmup() {
        let opts = tiny();
        let rng = RngFactory::new(opts.seed);
        for label in FIG05W_VARIANTS {
            let sched = variant_schedule(label, 6, &opts, &rng);
            assert!(
                sched
                    .iter()
                    .all(|(at, _)| at.as_secs_f64() > FIG05W_WARMUP_SECS),
                "variant '{label}' schedules a change inside the shared prefix"
            );
        }
        // The non-calm variants must have something to apply, or the
        // divergence test above tests nothing.
        assert!(!variant_schedule("paper", 6, &opts, &rng).is_empty());
        assert!(!variant_schedule("storm", 6, &opts, &rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown fig05w variant")]
    fn unknown_variant_labels_are_rejected() {
        let rng = RngFactory::new(1);
        variant_schedule("typo", 6, &tiny(), &rng);
    }
}
