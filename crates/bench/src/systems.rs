//! Uniform wrappers for running each dissemination system on a topology.
//!
//! Every figure needs the same thing: run protocol X on topology T (with an
//! optional bandwidth-change schedule) and collect per-receiver completion
//! times. These helpers keep the per-figure code declarative.

use baselines::{bullet_orig, splitstream, BitTorrentConfig, BitTorrentNode};
use bullet_prime::{BulletPrimeNode, Config};
use desim::{RngFactory, SimDuration};
use dissem_codec::FileSpec;
use netsim::{
    ChangeSchedule, CrossSchedule, Network, NodeEvent, NodeId, NodeSchedule, Protocol, RunReport,
    Runner, Topology,
};

use crate::cdf::Series;
use crate::tap::drive;

/// The systems compared in Figs 4, 5 and 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// The paper's contribution.
    BulletPrime,
    /// Original Bullet (SOSP '03), fixed parameters.
    BulletOriginal,
    /// BitTorrent with a central tracker.
    BitTorrent,
    /// SplitStream-style stripe-tree push.
    SplitStream,
}

impl SystemKind {
    /// Legend label used in the figures (matching the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::BulletPrime => "BulletPrime",
            SystemKind::BulletOriginal => "Bullet",
            SystemKind::BitTorrent => "BitTorrent",
            SystemKind::SplitStream => "SplitStream",
        }
    }

    /// All four systems in the order the paper lists them.
    pub fn all() -> [SystemKind; 4] {
        [
            SystemKind::BulletPrime,
            SystemKind::BulletOriginal,
            SystemKind::BitTorrent,
            SystemKind::SplitStream,
        ]
    }
}

/// Result of one protocol run.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// Per-receiver completion times (seconds). Nodes that did not finish
    /// within the time limit are reported at the end-of-run time.
    pub times: Vec<f64>,
    /// Number of receivers that did not finish within the limit.
    pub unfinished: usize,
    /// Virtual end time of the run.
    pub end_time: f64,
}

impl SystemRun {
    /// The receivers' completion-time CDF, its label marking any receivers
    /// left unfinished.
    pub fn cdf(&self, label: impl Into<String>) -> Series {
        let mut series = Series::cdf(label, &self.times);
        if self.unfinished > 0 {
            series.label = format!("{} ({} unfinished)", series.label, self.unfinished);
        }
        series
    }
}

/// Timing summary of receiver completions (`None` = unfinished, reported
/// at the run's `end`).
fn summarize_times(completions: impl Iterator<Item = Option<f64>>, end: f64) -> SystemRun {
    let mut unfinished = 0;
    let times = completions
        .map(|c| {
            c.unwrap_or_else(|| {
                unfinished += 1;
                end
            })
        })
        .collect();
    SystemRun {
        times,
        unfinished,
        end_time: end,
    }
}

/// The timing summary of a run's receivers: every node but node 0, the
/// source in every system.
pub fn collect_times(report: &RunReport) -> SystemRun {
    summarize_times(
        report.completion_secs.iter().skip(1).copied(),
        report.end_time.as_secs_f64(),
    )
}

/// Like [`collect_times`], but for churn runs: receivers that left or
/// crashed are excluded from the timing series (they can never finish), so
/// the CDF describes the *survivors*.
fn collect_survivor_times(report: &RunReport) -> SystemRun {
    let survivors = report
        .completion_secs
        .iter()
        .zip(&report.departed)
        .skip(1) // Node 0 is the source.
        .filter(|(_, &departed)| !departed)
        .map(|(c, _)| *c);
    summarize_times(survivors, report.end_time.as_secs_f64())
}

/// Schedules `schedule`'s link changes and runs to `limit`.
fn run_to<P: Protocol>(
    runner: &mut Runner<P>,
    schedule: &ChangeSchedule,
    limit: SimDuration,
) -> RunReport {
    for (at, batch) in schedule {
        runner.schedule_link_change(*at, batch.clone());
    }
    drive(runner, |r| r.run(limit))
}

/// Runs Bullet′ under a node-lifecycle (churn) schedule: nodes named in
/// `Join` events start outside the experiment and join when the event fires;
/// `Leave`/`Crash` events remove nodes mid-run. Returns the survivor timing
/// summary, the full runner report (per-node completions + departures), and
/// the protocol nodes.
pub fn run_bullet_prime_churn(
    topo: Topology,
    cfg: &Config,
    rng: &RngFactory,
    churn: &NodeSchedule,
    limit: SimDuration,
) -> (SystemRun, RunReport, Vec<BulletPrimeNode>) {
    let mut runner = bullet_prime::build_runner(topo, cfg, rng);
    for (at, event) in churn {
        if let NodeEvent::Join(node) = event {
            runner.set_inactive_at_start(*node);
        }
        runner.schedule_node_event(*at, *event);
    }
    let report = drive(&mut runner, |r| r.run(limit));
    (collect_survivor_times(&report), report, runner.into_nodes())
}

/// Runs Bullet′ with a run-time stats probe sampling every `tick`, returning
/// the timing summary and the full report — whose
/// [`timeseries`](netsim::RunReport::timeseries) carries per-node goodput /
/// duplicate-ratio / peer-set-size samples over virtual time (the `fig05ts`
/// bandwidth-over-time scenario).
pub fn run_bullet_prime_timeseries(
    topo: Topology,
    cfg: &Config,
    rng: &RngFactory,
    schedule: &ChangeSchedule,
    limit: SimDuration,
    tick: SimDuration,
) -> (SystemRun, RunReport, Vec<BulletPrimeNode>) {
    let mut runner = bullet_prime::build_runner(topo, cfg, rng);
    runner.record_timeseries(tick);
    let report = run_to(&mut runner, schedule, limit);
    (collect_times(&report), report, runner.into_nodes())
}

/// Runs several **concurrent, independent Bullet′ meshes** on one topology
/// (see [`bullet_prime::build_group_runner`]): `group_sizes` partitions the
/// node ids into contiguous meshes, each with its own source (the group's
/// first id). Returns one [`SystemRun`] per mesh — its receivers' completion
/// times — so shared-bottleneck scenarios can compare the meshes directly.
pub fn run_concurrent_meshes(
    topo: Topology,
    cfg: &Config,
    rng: &RngFactory,
    group_sizes: &[usize],
    limit: SimDuration,
) -> Vec<SystemRun> {
    let mut runner = bullet_prime::build_group_runner(topo, cfg, rng, group_sizes);
    let report = drive(&mut runner, |r| r.run(limit));
    let end = report.end_time.as_secs_f64();
    let mut base = 0usize;
    group_sizes
        .iter()
        .map(|&size| {
            let group = &report.completion_secs[base..base + size];
            base += size;
            // Each group's first node is its source.
            summarize_times(group.iter().skip(1).copied(), end)
        })
        .collect()
}

/// Runs Bullet′ under a cross-traffic schedule with a run-time stats probe
/// sampling every `tick` (the fig19 bandwidth-over-time scenario). Returns
/// the timing summary and the full report carrying the
/// [`timeseries`](netsim::RunReport::timeseries).
pub fn run_bullet_prime_cross(
    topo: Topology,
    cfg: &Config,
    rng: &RngFactory,
    cross: &CrossSchedule,
    limit: SimDuration,
    tick: SimDuration,
) -> (SystemRun, RunReport, Vec<BulletPrimeNode>) {
    let mut runner = bullet_prime::build_runner(topo, cfg, rng);
    for &(at, change) in cross {
        runner.schedule_cross_traffic(at, change);
    }
    runner.record_timeseries(tick);
    let report = drive(&mut runner, |r| r.run(limit));
    (collect_times(&report), report, runner.into_nodes())
}

/// Runs Bullet′ with an explicit configuration and returns both the timing
/// summary and the protocol nodes (for metric extraction, e.g. Fig 13).
pub fn run_bullet_prime_with(
    topo: Topology,
    cfg: &Config,
    rng: &RngFactory,
    schedule: &ChangeSchedule,
    limit: SimDuration,
) -> (SystemRun, Vec<BulletPrimeNode>) {
    let mut runner = bullet_prime::build_runner(topo, cfg, rng);
    let report = run_to(&mut runner, schedule, limit);
    (collect_times(&report), runner.into_nodes())
}

/// Runs one of the four compared systems with its default configuration.
pub fn run_system(
    kind: SystemKind,
    topo: Topology,
    file: FileSpec,
    rng: &RngFactory,
    schedule: &ChangeSchedule,
    limit: SimDuration,
) -> SystemRun {
    match kind {
        SystemKind::BulletPrime => {
            run_bullet_prime_with(topo, &Config::new(file), rng, schedule, limit).0
        }
        SystemKind::BulletOriginal => {
            let mut runner = bullet_orig::build_runner(topo, file, rng);
            collect_times(&run_to(&mut runner, schedule, limit))
        }
        SystemKind::BitTorrent => {
            let mut runner = bittorrent_runner(topo, &BitTorrentConfig::new(file), rng);
            collect_times(&run_to(&mut runner, schedule, limit))
        }
        SystemKind::SplitStream => {
            let mut runner = splitstream::build_runner(topo, file, rng);
            collect_times(&run_to(&mut runner, schedule, limit))
        }
    }
}

/// A BitTorrent swarm with node 0 as the seeding source.
fn bittorrent_runner(
    topo: Topology,
    cfg: &BitTorrentConfig,
    rng: &RngFactory,
) -> Runner<BitTorrentNode> {
    let nodes: Vec<BitTorrentNode> = (0..topo.len() as u32)
        .map(|i| BitTorrentNode::new(NodeId(i), cfg.clone()))
        .collect();
    let mut runner = Runner::new(Network::new(topo), nodes, rng);
    runner.exempt_from_completion(NodeId(0));
    runner
}

/// Builds the bandwidth-change schedule of §4.1 for a run of `nodes`
/// participants over `horizon` seconds (used by Figs 5 and 8).
pub fn paper_dynamic_schedule(nodes: usize, horizon: f64, rng: &RngFactory) -> ChangeSchedule {
    netsim::dynamics::correlated_decrease_schedule(
        nodes,
        SimDuration::from_secs(20),
        SimDuration::from_secs_f64(horizon),
        rng,
    )
}

/// Builds the Fig 12 cascading-degrade schedule for the standard cascade
/// topology: the victim is the last node; one dedicated link degrades to
/// 100 Kbps every `period_secs` (25 s in the paper).
pub fn cascade_schedule(fast_nodes: usize, period_secs: f64) -> ChangeSchedule {
    let senders: Vec<NodeId> = (1..fast_nodes as u32).map(NodeId).collect();
    let victim = NodeId(fast_nodes as u32);
    netsim::dynamics::cascading_degrade_schedule(
        &senders,
        victim,
        SimDuration::from_secs_f64(period_secs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::topology;

    #[test]
    fn all_four_systems_run_on_a_tiny_workload() {
        for kind in SystemKind::all() {
            let rng = RngFactory::new(3);
            let topo = topology::modelnet_mesh(6, 0.005, &rng);
            let run = run_system(
                kind,
                topo,
                FileSpec::new(128 * 1024, 16 * 1024),
                &rng,
                &Vec::new(),
                SimDuration::from_secs(1800),
            );
            assert_eq!(run.times.len(), 5, "{kind:?}");
            assert_eq!(run.unfinished, 0, "{kind:?} left receivers unfinished");
            assert!(run.times.iter().all(|&t| t > 0.0 && t <= run.end_time));
        }
    }

    #[test]
    fn schedules_are_generated_for_the_standard_scenarios() {
        let rng = RngFactory::new(1);
        let dynamic = paper_dynamic_schedule(20, 100.0, &rng);
        assert_eq!(dynamic.len(), 5);
        let cascade = cascade_schedule(7, 25.0);
        assert_eq!(cascade.len(), 6);
        assert_eq!(cascade[0].0.as_secs_f64(), 25.0);
        assert!(cascade.iter().all(|(_, b)| b.changes[0].1 == NodeId(7)));
    }
}
