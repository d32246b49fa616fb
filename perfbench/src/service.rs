//! The `service` workload: fig21's open system. Swarms arrive at a fixed
//! rate, claim a segment of a shared slot pool, disseminate over one shared
//! 16 Mbps core and are retired when done; their slots are reactivated for
//! later arrivals.
//!
//! Arrivals follow a jittered periodic plan (one per `1000 / load` seconds,
//! at a seeded uniform offset inside its period) rather than fig21's
//! Poisson stream, and stop a drain window before the horizon. Under
//! Poisson arrivals the latencies and the backlog at the horizon depend on
//! the arrival draw far more than on the program, so no seed-to-seed bound
//! could hold them (see `README.md`).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bullet_bench::alloc_track;
use bullet_prime::{build_service_runner, BulletPrimeNode, Config, ServiceSwarms};
use desim::{RngFactory, SimDuration, SimTime};
use dissem_codec::FileSpec;
use netsim::{
    mbps, run_service, topology, ArrivalGen, NodeId, Protocol, Runner, ServiceConfig,
    ServiceReport, SwarmShape, SwarmSource,
};
use rand::Rng;

use crate::closed::{instance_seed, rewrap};
use crate::hooks::{HookTally, Hooked, SharedTally};
use crate::layers::{Layers, System};
use crate::measure::{Outcome, Workload};

/// An open-system service workload of `instances` independent pools per
/// repetition.
#[derive(Debug, Clone)]
pub struct Service {
    /// Slot-pool size.
    pub pool: usize,
    /// Offered load, swarm arrivals per 1,000 virtual seconds.
    pub load_per_1000s: f64,
    /// Service window, virtual seconds.
    pub horizon_secs: f64,
    /// Arrivals stop here; the rest of the window drains the pool.
    pub arrivals_end_secs: f64,
    /// Largest file a swarm draws, bytes (the smallest is half of it).
    pub file_hi: u64,
    /// Independent pools per repetition.
    pub instances: usize,
}

/// One pool, ready to run: the runner plus everything `run_service` takes.
pub struct Pool<P: Protocol, S> {
    runner: Runner<P>,
    source: S,
    cfg: ServiceConfig,
    arrivals: ArrivalGen,
    rng: RngFactory,
}

/// [`ServiceSwarms`] building [`Hooked`] nodes.
struct HookedSwarms {
    inner: ServiceSwarms,
    tally: SharedTally,
}

impl SwarmSource<Hooked<BulletPrimeNode>> for HookedSwarms {
    fn shape(&mut self, index: usize) -> SwarmShape {
        self.inner.shape(index)
    }

    fn build(&mut self, base: NodeId, shape: &SwarmShape) -> Vec<Hooked<BulletPrimeNode>> {
        self.inner
            .build(base, shape)
            .into_iter()
            .map(|n| Hooked::new(n, &self.tally))
            .collect()
    }
}

impl Service {
    /// fig21's 64-swarms-per-1,000 s point on its 48-slot pool over a
    /// 1,200 s window whose last 300 s drain the pool; four pools per
    /// repetition (228 swarms).
    pub fn standard() -> Self {
        Service {
            pool: 48,
            load_per_1000s: 64.0,
            horizon_secs: 1_200.0,
            arrivals_end_secs: 900.0,
            file_hi: 2 * 1024 * 1024,
            instances: 4,
        }
    }

    /// Builds pool `i` the way fig21 does, except for the arrival plan,
    /// which is drawn here, before timing, and handed over as a trace.
    fn pool<P: Protocol, S: SwarmSource<P>>(
        &self,
        seed: u64,
        i: usize,
        wrap: impl FnOnce(Runner<BulletPrimeNode>, ServiceSwarms, &RngFactory) -> (Runner<P>, S),
    ) -> Pool<P, S> {
        let slots = (self.pool / 4).max(2);
        let block = 16 * 1024;
        let rng = RngFactory::new(instance_seed(seed, i));
        let topo = topology::shared_core_mesh(self.pool, mbps(16.0), 0.0, &rng);
        let core = topo.core_link(NodeId(0), NodeId(1));
        let template = Config::new(FileSpec::new(self.file_hi, block));
        let runner = build_service_runner(topo, &template, &rng);
        let source = ServiceSwarms::new(
            template,
            &rng,
            (slots.saturating_sub(2).max(2), slots),
            ((self.file_hi / 2).max(block as u64), self.file_hi),
        );
        let cfg = ServiceConfig {
            horizon: SimTime::from_secs_f64(self.horizon_secs),
            warmup: SimTime::from_secs_f64(0.15 * self.horizon_secs),
            tick: SimDuration::from_secs_f64(self.horizon_secs / 60.0),
            segment_slots: slots,
            max_arrivals: 256,
            core: Some(core),
        };
        let plan = arrival_plan(self.load_per_1000s, self.arrivals_end_secs, &rng);
        let (runner, source) = wrap(runner, source, &rng);
        Pool {
            runner,
            source,
            cfg,
            arrivals: ArrivalGen::Trace(plan),
            rng,
        }
    }

    fn bare(&self, seed: u64, i: usize) -> Pool<BulletPrimeNode, ServiceSwarms> {
        self.pool(seed, i, |r, s, _| (r, s))
    }
}

/// One arrival per `1000 / load_per_1000s` seconds up to `end_secs`, each
/// at a uniform offset inside its period drawn from the factory's
/// `"perfbench.arrivals"` stream.
pub fn arrival_plan(load_per_1000s: f64, end_secs: f64, rng: &RngFactory) -> Vec<SimTime> {
    let period = 1000.0 / load_per_1000s;
    let mut offsets = rng.stream("perfbench.arrivals");
    (0..(end_secs / period) as usize)
        .map(|i| SimTime::from_secs_f64((i as f64 + offsets.gen::<f64>()) * period))
        .collect()
}

/// Runs one pool to its horizon.
fn drive<P: Protocol, S: SwarmSource<P>>(pool: &mut Pool<P, S>) -> ServiceReport {
    run_service(
        &mut pool.runner,
        &pool.cfg,
        &pool.arrivals,
        &mut pool.source,
        &pool.rng,
    )
}

/// Checks one service report's accounting and folds it into `out`.
fn add_report(out: &mut Outcome, r: &ServiceReport) -> Result<(), String> {
    if r.arrivals != r.admitted + r.queued_at_end {
        return Err(format!(
            "{} arrivals != {} admitted + {} queued",
            r.arrivals, r.admitted, r.queued_at_end
        ));
    }
    if r.admitted != r.completed + r.in_flight_at_end {
        return Err(format!(
            "{} admitted != {} completed + {} in flight",
            r.admitted, r.completed, r.in_flight_at_end
        ));
    }
    for c in &r.cohorts {
        out.latency_s.push(c.p50_secs);
        out.done_s
            .push(c.p50_secs - (c.admit_secs - c.arrival_secs));
    }
    out.attempted += r.arrivals as u64;
    out.unfinished += (r.arrivals - r.completed) as u64;
    out.goodput_mbps += r.sustained_goodput_bps / 1e6;
    out.events += r.events;
    out.end_s.push(r.horizon_secs);
    out.canonicals.push(r.canonical());
    Ok(())
}

/// Closes an outcome built by [`add_report`]: goodput becomes the mean over
/// pools, and the tail check applies.
fn finish(mut out: Outcome) -> Result<Outcome, String> {
    out.goodput_mbps /= out.end_s.len().max(1) as f64;
    out.check_tail()?;
    Ok(out)
}

impl Workload for Service {
    type Built = Vec<Pool<BulletPrimeNode, ServiceSwarms>>;

    fn setup(&self, seed: u64) -> Self::Built {
        (0..self.instances).map(|i| self.bare(seed, i)).collect()
    }

    fn run(&self, built: Self::Built) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        for mut pool in built {
            add_report(&mut out, &drive(&mut pool))?;
        }
        finish(out)
    }

    fn traced(&self, seed: u64) -> Result<(Layers, Outcome), String> {
        let mut layers = Layers::default();
        let mut plain = Outcome::default();
        let tally: SharedTally = Rc::new(RefCell::new(HookTally::default()));
        for i in 0..self.instances {
            let mut pool = self.bare(seed, i);
            let allocs = alloc_track::allocs();
            let t0 = Instant::now();
            let bare = drive(&mut pool);
            layers.untraced_wall_s += t0.elapsed().as_secs_f64();
            layers.untraced_allocs += alloc_track::allocs() - allocs;
            layers.untraced_events += bare.events;
            add_report(&mut plain, &bare)?;

            let mut pool = self.pool(seed, i, |r, s, rng| {
                let source = HookedSwarms {
                    inner: s,
                    tally: Rc::clone(&tally),
                };
                (rewrap(r, rng, &tally), source)
            });
            pool.runner.enable_profiling(10.0);
            let t0 = Instant::now();
            let traced = drive(&mut pool);
            layers.traced_wall_s += t0.elapsed().as_secs_f64();
            if traced.canonical() != bare.canonical() {
                return Err(format!(
                    "pool {i}: traced report differs from the untraced one"
                ));
            }
            let profile = pool.runner.take_profile().expect("profiling was enabled");
            layers.add_run(traced.events, &pool.runner.metrics_snapshot(), &profile);
            layers.service.add(&traced);
        }
        layers.hooks = tally.borrow().clone();
        let bp = &mut layers.systems[System::BulletPrime as usize];
        bp.wall_s = layers.untraced_wall_s;
        bp.events = layers.untraced_events;
        Ok((layers, finish(plain)?))
    }
}
