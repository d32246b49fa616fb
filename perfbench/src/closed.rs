//! The closed dissemination workloads: `dynamics` (fig05 shape) and
//! `swarm` (fig20 shape). One source, every other node a receiver, the run
//! ends when every receiver holds the file.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bullet_bench::alloc_track;
use bullet_bench::systems::paper_dynamic_schedule;
use bullet_prime::{BulletPrimeNode, Config};
use desim::{RngFactory, SimDuration, SimTime};
use dissem_codec::FileSpec;
use netsim::{topology, ChangeSchedule, NodeId, Protocol, RunReport, Runner, StopReason};

use crate::hooks::{HookTally, Hooked, SharedTally};
use crate::layers::{Layers, System};
use crate::measure::{Outcome, Workload};

/// Virtual-time limit of the closed runs (the figure binaries' default).
pub const LIMIT_SECS: f64 = 7_200.0;

/// The seed of instance `i` of a run seeded with `seed`. Instances of one
/// run are independent draws; instance 0 uses the run's seed itself.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(1_000_000_007))
}

/// Rebuilds a Bullet′ runner around wrapped nodes. `Runner::new` derives
/// every per-node stream from the factory, so the rebuilt runner starts in
/// the same state as the one the program's builder returned.
pub fn rewrap(
    runner: Runner<BulletPrimeNode>,
    rng: &RngFactory,
    tally: &SharedTally,
) -> Runner<Hooked<BulletPrimeNode>> {
    let net = runner.network().clone();
    let nodes = runner
        .into_nodes()
        .into_iter()
        .map(|n| Hooked::new(n, tally))
        .collect();
    Runner::new(net, nodes, rng)
}

/// The topology family of a closed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `modelnet_mesh` with 3% loss under `paper_dynamic_schedule`.
    DynamicMesh,
    /// `uniform_swarm`, no dynamics.
    UniformSwarm,
}

/// A closed Bullet′ workload: `instances` independent emulations per
/// repetition, each hosting `groups` independent meshes.
#[derive(Debug, Clone)]
pub struct Closed {
    /// Topology family.
    pub shape: Shape,
    /// Nodes per emulation, sources included.
    pub nodes: usize,
    /// The disseminated file.
    pub file: FileSpec,
    /// Independent emulations per repetition.
    pub instances: usize,
    /// Independent meshes sharing each instance's emulation.
    pub groups: usize,
}

impl Closed {
    /// The `dynamics` workload: fig05 shape, 30 nodes, 1,024 blocks, eight
    /// swarms per repetition (232 receivers). The work per swarm moves by
    /// about a tenth from seed to seed; eight swarms average that out.
    pub fn dynamics() -> Self {
        Closed {
            shape: Shape::DynamicMesh,
            nodes: 30,
            file: FileSpec::new(16 * 1024 * 1024, 16 * 1024),
            instances: 8,
            groups: 1,
        }
    }

    /// The `swarm` workload: fig20's join-only uniform-core topology at
    /// N = 3,000 and 128 blocks, hosting ten independent 300-node meshes in
    /// one emulation. One 3,000-node mesh is a single draw whose completion
    /// times move by a third or more from seed to seed; ten meshes pool
    /// that down while the runner, queue and fluid model still carry all
    /// 3,000 nodes.
    pub fn swarm() -> Self {
        Closed {
            shape: Shape::UniformSwarm,
            nodes: 3_000,
            file: FileSpec::new(2 * 1024 * 1024, 16 * 1024),
            instances: 1,
            groups: 20,
        }
    }

    fn inputs(&self, seed: u64, i: usize) -> (RngFactory, netsim::Topology, ChangeSchedule) {
        let rng = RngFactory::new(instance_seed(seed, i));
        match self.shape {
            Shape::DynamicMesh => {
                let topo = topology::modelnet_mesh(self.nodes, 0.03, &rng);
                let schedule = paper_dynamic_schedule(self.nodes, LIMIT_SECS, &rng);
                (rng, topo, schedule)
            }
            Shape::UniformSwarm => {
                let topo = topology::uniform_swarm(self.nodes, &rng);
                (rng, topo, Vec::new())
            }
        }
    }

    /// Instance `i`'s runner, built by the program's own builder and passed
    /// through `wrap` (the identity, or [`rewrap`] for a traced run).
    fn runner<P: Protocol>(
        &self,
        seed: u64,
        i: usize,
        wrap: impl FnOnce(Runner<BulletPrimeNode>, &RngFactory) -> Runner<P>,
    ) -> Runner<P> {
        let (rng, topo, schedule) = self.inputs(seed, i);
        let cfg = Config::new(self.file);
        let built = if self.groups > 1 {
            let sizes = vec![self.group_size(); self.groups];
            bullet_prime::build_group_runner(topo, &cfg, &rng, &sizes)
        } else {
            bullet_prime::build_runner(topo, &cfg, &rng)
        };
        let mut runner = wrap(built, &rng);
        for source in (0..self.nodes).step_by(self.group_size()) {
            runner.exempt_from_completion(NodeId(source as u32));
        }
        for (at, batch) in schedule {
            runner.schedule_link_change(at, batch);
        }
        runner
    }

    fn group_size(&self) -> usize {
        self.nodes / self.groups
    }

    fn bare(&self, seed: u64, i: usize) -> Runner<BulletPrimeNode> {
        self.runner(seed, i, |r, _| r)
    }

    fn limit() -> SimDuration {
        SimDuration::from_secs_f64(LIMIT_SECS)
    }
}

/// Checks one closed run and folds it into `out`. Every `group`-th node
/// (from node 0) is a mesh's source, not a receiver.
fn add_report(
    out: &mut Outcome,
    r: &RunReport,
    file: FileSpec,
    group: usize,
) -> Result<(), String> {
    if r.reason != StopReason::AllComplete {
        return Err(format!("run stopped with {:?}, not AllComplete", r.reason));
    }
    let sent = r.metrics.counter("blocks_sent").unwrap_or(0);
    let delivered = r.metrics.counter("blocks_delivered").unwrap_or(0);
    if delivered > sent {
        return Err(format!("{delivered} blocks delivered but only {sent} sent"));
    }
    let file_mbit = file.file_bytes as f64 * 8.0 / 1e6;
    for (i, (done, &gone)) in r.completion_secs.iter().zip(&r.departed).enumerate() {
        if i % group == 0 || gone {
            continue;
        }
        out.attempted += 1;
        match done {
            Some(t) => {
                out.done_s.push(*t);
                out.latency_s.push(*t);
                out.goodput_mbps += file_mbit / t;
            }
            None => out.unfinished += 1,
        }
    }
    out.events += r.events;
    out.end_s.push(r.end_time.as_secs_f64());
    out.canonicals.push(r.canonical());
    Ok(())
}

/// Closes an outcome built by [`add_report`]: the goodput sum becomes the
/// mean per-receiver download rate, and the tail check applies.
fn finish(mut out: Outcome) -> Result<Outcome, String> {
    out.goodput_mbps /= out.done_s.len().max(1) as f64;
    out.check_tail()?;
    Ok(out)
}

impl Workload for Closed {
    type Built = Vec<Runner<BulletPrimeNode>>;

    fn setup(&self, seed: u64) -> Self::Built {
        (0..self.instances).map(|i| self.bare(seed, i)).collect()
    }

    fn run(&self, built: Self::Built) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        for mut runner in built {
            add_report(
                &mut out,
                &runner.run(Self::limit()),
                self.file,
                self.group_size(),
            )?;
        }
        finish(out)
    }

    /// `dynamics` only: checkpoint instance 0 at half its virtual run time,
    /// resume from the snapshot, run to the end, and require the report of
    /// the uninterrupted run.
    fn check(&self, seed: u64, first: &Outcome) -> Result<(), String> {
        if self.shape != Shape::DynamicMesh {
            return Ok(());
        }
        let mut staged = self.bare(seed, 0);
        let split = SimTime::from_secs_f64(first.end_s[0] / 2.0);
        let reason = staged.advance_until(split);
        if reason != StopReason::TimeLimit {
            return Err(format!("run ended ({reason:?}) before the mid-run split"));
        }
        let snapshot = staged.checkpoint();
        drop(staged);
        let resumed = Runner::resume(snapshot).run_until(SimTime::ZERO + Self::limit());
        if resumed.canonical() != first.canonicals[0] {
            return Err("checkpoint → resume → run diverged from the uninterrupted run".into());
        }
        Ok(())
    }

    fn traced(&self, seed: u64) -> Result<(Layers, Outcome), String> {
        let mut layers = Layers::default();
        let mut plain = Outcome::default();
        let tally: SharedTally = Rc::new(RefCell::new(HookTally::default()));
        for i in 0..self.instances {
            let mut runner = self.bare(seed, i);
            let allocs = alloc_track::allocs();
            let t0 = Instant::now();
            let bare = runner.run(Self::limit());
            layers.untraced_wall_s += t0.elapsed().as_secs_f64();
            layers.untraced_allocs += alloc_track::allocs() - allocs;
            layers.untraced_events += bare.events;
            add_report(&mut plain, &bare, self.file, self.group_size())?;

            let mut runner = self.runner(seed, i, |r, rng| rewrap(r, rng, &tally));
            runner.enable_profiling(10.0);
            let t0 = Instant::now();
            let traced = runner.run(Self::limit());
            layers.traced_wall_s += t0.elapsed().as_secs_f64();
            if traced.canonical() != bare.canonical() {
                return Err(format!(
                    "instance {i}: traced report differs from the untraced one"
                ));
            }
            let profile = runner.take_profile().expect("profiling was enabled");
            layers.add_run(traced.events, &traced.metrics, &profile);
        }
        layers.hooks = tally.borrow().clone();
        let bp = &mut layers.systems[System::BulletPrime as usize];
        bp.wall_s = layers.untraced_wall_s;
        bp.events = layers.untraced_events;
        Ok((layers, finish(plain)?))
    }
}
