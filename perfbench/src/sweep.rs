//! The `paper_sweep` workload: the fig05 scenario (all four systems under
//! the §4.1 bandwidth changes) driven through `bullet_lab::run_sweep` on two
//! workers over a reduced set of cells.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use baselines::{bullet_orig, splitstream, BitTorrentConfig, BitTorrentNode};
use bullet_bench::alloc_track;
use bullet_bench::experiments;
use bullet_bench::systems::{paper_dynamic_schedule, run_system, SystemKind};
use bullet_bench::{CommonOpts, Figure, Series};
use bullet_lab::{run_sweep, ParamPoint, Registry, Scenario, SweepReport, SweepSpec};
use bullet_prime::Config;
use desim::{RngFactory, SimDuration};
use dissem_codec::FileSpec;
use netsim::{topology, ChangeSchedule, Network, NodeId, Protocol, RunReport, Runner, Topology};

use crate::closed::{instance_seed, rewrap};
use crate::hooks::{HookTally, SharedTally};
use crate::layers::{ExecutorStats, Layers, System};
use crate::measure::{Outcome, Workload};

/// Worker threads of the sweep executor.
pub const WORKERS: usize = 2;

/// The sweep's points: fig05's 20- and 40-node points (it also has 60).
const POINTS: [(&str, usize); 2] = [("20-nodes", 20), ("40-nodes", 40)];
/// Seeds per point, derived from the run's seed.
const SEEDS: usize = 4;
/// File size, MiB (fig05's reduced scale uses 20).
const FILE_MB: f64 = 8.0;

/// A reduced fig05 sweep: [`POINTS`] × [`SEEDS`] cells, 8 cells in all.
#[derive(Debug, Clone, Copy)]
pub struct PaperSweep;

/// What set-up hands to the run: the scenario and its cells' options.
pub struct SweepPlan {
    scenario: Scenario,
    base: CommonOpts,
    seeds: Vec<u64>,
}

/// One sweep cell's generated inputs, as fig05 generates them.
struct CellInputs {
    rng: RngFactory,
    nodes: usize,
    file: FileSpec,
    schedule: ChangeSchedule,
    limit: SimDuration,
}

impl CellInputs {
    fn new(opts: &CommonOpts) -> Self {
        let nodes = opts.nodes_or(60, 100);
        let rng = RngFactory::new(opts.seed);
        let schedule = paper_dynamic_schedule(nodes, opts.time_limit, &rng);
        CellInputs {
            nodes,
            file: FileSpec::new(opts.file_bytes_or(20.0, 100.0), opts.block_bytes_or(16)),
            schedule,
            limit: SimDuration::from_secs_f64(opts.time_limit),
            rng,
        }
    }

    fn topology(&self) -> Topology {
        topology::modelnet_mesh(self.nodes, 0.03, &self.rng)
    }
}

const KINDS: [(SystemKind, System); 4] = [
    (SystemKind::BulletPrime, System::BulletPrime),
    (SystemKind::BulletOriginal, System::Bullet),
    (SystemKind::BitTorrent, System::BitTorrent),
    (SystemKind::SplitStream, System::SplitStream),
];

impl PaperSweep {
    fn plan(&self, seed: u64) -> SweepPlan {
        let registry = Registry::standard();
        let fig05 = registry.get("fig05").expect("fig05 is registered");
        let mut scenario = Scenario::new(
            fig05.name,
            fig05.title,
            fig05.system,
            fig05.topology,
            fig05.dynamics,
            experiments::fig05,
        );
        let points = POINTS.map(|(label, nodes)| ParamPoint {
            label,
            nodes: Some(nodes),
            ..ParamPoint::default()
        });
        scenario.sweep = SweepSpec {
            points: points.to_vec(),
            ..fig05.sweep.clone()
        };
        SweepPlan {
            scenario,
            base: CommonOpts {
                file_mb: Some(FILE_MB),
                ..CommonOpts::default()
            },
            seeds: (0..SEEDS).map(|i| instance_seed(seed, i)).collect(),
        }
    }

    /// Every cell's options, in the sweep's cell order.
    fn cells(plan: &SweepPlan) -> Vec<CommonOpts> {
        let sc = &plan.scenario;
        sc.sweep
            .points
            .iter()
            .flat_map(|p| {
                plan.seeds
                    .iter()
                    .map(move |&s| sc.cell_opts(&plan.base, p, s))
            })
            .collect()
    }
}

/// Receiver completion times of one system's curve: the CDF's x values,
/// minus the unfinished receivers the figure parks at the end time.
fn curve_times(series: &Series, label: &str) -> Result<(Vec<f64>, u64), String> {
    let unfinished = match series.label.strip_prefix(label) {
        Some("") => 0,
        Some(rest) => rest
            .trim()
            .strip_prefix('(')
            .and_then(|r| r.strip_suffix(" unfinished)"))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("unexpected curve label {:?}", series.label))?,
        None => return Err(format!("expected a {label} curve, got {:?}", series.label)),
    };
    let times: Vec<f64> = series.points.iter().map(|p| p.0).collect();
    let finished = times.len() - unfinished as usize;
    Ok((times[..finished].to_vec(), unfinished))
}

/// Folds one cell's figure into `out`.
fn add_figure(out: &mut Outcome, fig: &Figure) -> Result<(), String> {
    if fig.series.len() != KINDS.len() {
        return Err(format!("fig05 cell has {} curves, not 4", fig.series.len()));
    }
    for (series, (kind, _)) in fig.series.iter().zip(KINDS) {
        let (times, unfinished) = curve_times(series, kind.label())?;
        if unfinished > 0 {
            return Err(format!(
                "{unfinished} {} receivers unfinished",
                kind.label()
            ));
        }
        out.attempted += series.points.len() as u64;
        out.goodput_mbps += times.iter().map(|t| 1.0 / t).sum::<f64>();
        out.latency_s.extend(&times);
        out.done_s.extend(times);
    }
    Ok(())
}

fn outcome(report: &SweepReport) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    for cell in &report.cells {
        add_figure(&mut out, &cell.figure)?;
    }
    // Σ 1/t over receivers × file bits / receivers: the mean download rate.
    out.goodput_mbps *= FILE_MB * 1024.0 * 1024.0 * 8.0 / 1e6 / out.done_s.len().max(1) as f64;
    out.canonicals.push(report.to_canonical_json());
    out.check_tail()?;
    Ok(out)
}

/// Runs a built runner to `limit`, returning its report and wall seconds.
fn timed<P: Protocol>(
    runner: &mut Runner<P>,
    schedule: &ChangeSchedule,
    limit: SimDuration,
) -> (RunReport, f64) {
    for (at, batch) in schedule {
        runner.schedule_link_change(*at, batch.clone());
    }
    let t0 = Instant::now();
    let report = runner.run(limit);
    (report, t0.elapsed().as_secs_f64())
}

/// BitTorrent's runner, as `run_system` builds it.
fn bittorrent_runner(cell: &CellInputs) -> Runner<BitTorrentNode> {
    let topo = cell.topology();
    let cfg = BitTorrentConfig::new(cell.file);
    let nodes = (0..topo.len() as u32)
        .map(|i| BitTorrentNode::new(NodeId(i), cfg.clone()))
        .collect();
    let mut r = Runner::new(Network::new(topo), nodes, &cell.rng);
    r.exempt_from_completion(NodeId(0));
    r
}

/// A baseline's report from its runner, built as `run_system` builds it.
fn baseline_report(kind: SystemKind, cell: &CellInputs) -> RunReport {
    let (schedule, limit) = (&cell.schedule, cell.limit);
    match kind {
        SystemKind::BulletOriginal => {
            let mut r = bullet_orig::build_runner(cell.topology(), cell.file, &cell.rng);
            timed(&mut r, schedule, limit).0
        }
        SystemKind::BitTorrent => timed(&mut bittorrent_runner(cell), schedule, limit).0,
        SystemKind::SplitStream => {
            let mut r = splitstream::build_runner(cell.topology(), cell.file, &cell.rng);
            timed(&mut r, schedule, limit).0
        }
        SystemKind::BulletPrime => unreachable!("Bullet′ runs wrapped"),
    }
}

/// Receiver times as `run_system` reports them (unfinished at the end).
fn receiver_times(r: &RunReport) -> Vec<f64> {
    let end = r.end_time.as_secs_f64();
    r.completion_secs
        .iter()
        .skip(1)
        .map(|c| c.unwrap_or(end))
        .collect()
}

/// The CDF a figure draws for `times`, as JSON, for byte comparison.
fn curve_json(times: &[f64]) -> String {
    serde_json::to_string(&Series::cdf("", times).points).expect("points serialise")
}

impl Workload for PaperSweep {
    type Built = SweepPlan;

    /// Builds the sweep plan, then generates every cell's inputs and builds
    /// every system's runner, as the cells themselves will inside the
    /// sweep, and drops them: `run_sweep` takes only the plan, so this is
    /// the set-up it repeats inside the timed run.
    fn setup(&self, seed: u64) -> SweepPlan {
        let plan = self.plan(seed);
        for opts in Self::cells(&plan) {
            let cell = CellInputs::new(&opts);
            let cfg = Config::new(cell.file);
            drop(bullet_prime::build_runner(cell.topology(), &cfg, &cell.rng));
            drop(bullet_orig::build_runner(
                cell.topology(),
                cell.file,
                &cell.rng,
            ));
            drop(bittorrent_runner(&cell));
            drop(splitstream::build_runner(
                cell.topology(),
                cell.file,
                &cell.rng,
            ));
        }
        plan
    }

    fn run(&self, plan: SweepPlan) -> Result<Outcome, String> {
        let report = run_sweep(&plan.scenario, &plan.base, &plan.seeds, WORKERS);
        outcome(&report)
    }

    /// Runs the sweep untraced (executor timing), then every cell's systems
    /// again one by one: each `run_system` call timed, and each system's
    /// runner rebuilt to count its events — Bullet′ profiled and wrapped.
    /// Every per-system curve must match the sweep's byte for byte.
    fn traced(&self, seed: u64) -> Result<(Layers, Outcome), String> {
        let plan = self.plan(seed);
        let t0 = Instant::now();
        let report = run_sweep(&plan.scenario, &plan.base, &plan.seeds, WORKERS);
        let sweep_wall = t0.elapsed().as_secs_f64();
        let plain = outcome(&report)?;

        let mut layers = Layers::default();
        let walls: Vec<f64> = report.cells.iter().map(|c| c.wall_clock_secs).collect();
        layers.executor = ExecutorStats::from_cells(&walls, WORKERS, sweep_wall);
        let tally: SharedTally = Rc::new(RefCell::new(HookTally::default()));
        for (opts, cell) in Self::cells(&plan).iter().zip(&report.cells) {
            for (series, (kind, sys)) in cell.figure.series.iter().zip(KINDS) {
                let inputs = CellInputs::new(opts);
                let allocs = alloc_track::allocs();
                let t0 = Instant::now();
                let run = run_system(
                    kind,
                    inputs.topology(),
                    inputs.file,
                    &inputs.rng,
                    &inputs.schedule,
                    inputs.limit,
                );
                let wall = t0.elapsed().as_secs_f64();
                let allocs = alloc_track::allocs() - allocs;
                let swept: Vec<f64> = series.points.iter().map(|p| p.0).collect();
                if curve_json(&run.times) != curve_json(&swept) {
                    return Err(format!(
                        "{}: run_system differs from the sweep cell",
                        kind.label()
                    ));
                }
                let rebuilt = if kind == SystemKind::BulletPrime {
                    let built = bullet_prime::build_runner(
                        inputs.topology(),
                        &Config::new(inputs.file),
                        &inputs.rng,
                    );
                    let mut r = rewrap(built, &inputs.rng, &tally);
                    r.exempt_from_completion(NodeId(0));
                    r.enable_profiling(10.0);
                    let (traced, traced_wall) = timed(&mut r, &inputs.schedule, inputs.limit);
                    let profile = r.take_profile().expect("profiling was enabled");
                    layers.add_run(traced.events, &traced.metrics, &profile);
                    layers.traced_wall_s += traced_wall;
                    layers.untraced_wall_s += wall;
                    layers.untraced_allocs += allocs;
                    layers.untraced_events += traced.events;
                    traced
                } else {
                    baseline_report(kind, &inputs)
                };
                if curve_json(&receiver_times(&rebuilt)) != curve_json(&run.times) {
                    return Err(format!(
                        "{}: rebuilt runner differs from run_system",
                        kind.label()
                    ));
                }
                let cost = &mut layers.systems[sys as usize];
                cost.wall_s += wall;
                cost.events += rebuilt.events;
            }
        }
        layers.hooks = tally.borrow().clone();
        Ok((layers, plain))
    }
}
