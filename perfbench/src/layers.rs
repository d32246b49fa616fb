//! The per-layer table of a traced run.
//!
//! Everything here is read from outside the program: the runner's metrics
//! snapshot (counts), the runner's wall-clock profiler (time per event kind
//! and per hook), the [`Hooked`](crate::hooks::Hooked) wrapper (time per
//! protocol layer), the service report, the sweep report and timed calls
//! into `bullet_bench::systems::run_system`.

use netsim::{EventKind, HookKind, MetricsSnapshot, ProfileReport, ServiceReport};

use crate::hooks::{HookTally, Layer};
use crate::stats;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The four systems of the paper's comparison; the discriminant indexes
/// [`Layers::systems`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Bullet′, reported as `core.bulletprime.*`.
    BulletPrime,
    /// Bullet over RanSub.
    Bullet,
    /// BitTorrent.
    BitTorrent,
    /// SplitStream.
    SplitStream,
}

impl System {
    /// The metric prefix.
    pub fn prefix(self) -> &'static str {
        match self {
            System::BulletPrime => "core.bulletprime",
            System::Bullet => "baselines.bullet",
            System::BitTorrent => "baselines.bittorrent",
            System::SplitStream => "baselines.splitstream",
        }
    }
}

/// Untraced wall seconds and events of one system's runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SystemCost {
    /// Wall seconds of the untraced runs.
    pub wall_s: f64,
    /// Events those runs processed.
    pub events: u64,
}

/// The sweep executor's timing, from `SweepReport.cells`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecutorStats {
    /// Cells executed.
    pub cells: usize,
    /// Median cell wall seconds.
    pub cell_p50_s: f64,
    /// Slowest cell wall seconds.
    pub cell_max_s: f64,
    /// Σ cell wall / (workers × sweep wall).
    pub busy_frac: f64,
    /// workers × sweep wall − Σ cell wall, seconds.
    pub idle_s: f64,
}

impl ExecutorStats {
    /// Derives the executor's figures from per-cell wall times of a sweep
    /// that took `sweep_wall_s` on `workers` threads.
    pub fn from_cells(cell_walls: &[f64], workers: usize, sweep_wall_s: f64) -> Self {
        let busy: f64 = cell_walls.iter().sum();
        let capacity = workers as f64 * sweep_wall_s;
        ExecutorStats {
            cells: cell_walls.len(),
            cell_p50_s: stats::median(cell_walls),
            cell_max_s: cell_walls.iter().copied().fold(0.0, f64::max),
            busy_frac: busy / capacity,
            idle_s: (capacity - busy).max(0.0),
        }
    }
}

/// Accumulated per-layer observations of one traced workload run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    events: u64,
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, u64)>,
    kind_nanos: [u64; EventKind::ALL.len()],
    hook_nanos: [u64; HookKind::ALL.len()],
    /// Wall seconds of the profiled (traced) runs.
    pub traced_wall_s: f64,
    /// Wall seconds of the same runs untraced.
    pub untraced_wall_s: f64,
    /// Heap allocations of the untraced runs.
    pub untraced_allocs: u64,
    /// Events of the untraced runs.
    pub untraced_events: u64,
    /// The wrapper's per-layer hook tally.
    pub hooks: HookTally,
    /// Service-layer accounting, summed over service instances.
    pub service: ServiceCounts,
    /// Untraced cost per system, indexed by [`System`].
    pub systems: [SystemCost; 4],
    /// Sweep executor timing (paper_sweep only).
    pub executor: ExecutorStats,
}

/// The service layer's admission accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceCounts {
    /// Arrivals within the horizon.
    pub arrivals: u64,
    /// Swarms admitted to a segment.
    pub admitted: u64,
    /// Swarms completed and reaped.
    pub completed: u64,
    /// Swarms queued at the horizon.
    pub queued_at_end: u64,
    /// Peak concurrently admitted swarms (maximum over instances).
    pub max_concurrent: u64,
}

impl ServiceCounts {
    /// Adds one service run.
    pub fn add(&mut self, r: &ServiceReport) {
        self.arrivals += r.arrivals as u64;
        self.admitted += r.admitted as u64;
        self.completed += r.completed as u64;
        self.queued_at_end += r.queued_at_end as u64;
        self.max_concurrent = self.max_concurrent.max(r.max_concurrent as u64);
    }
}

impl Layers {
    /// Adds one profiled run: its processed events, metrics snapshot and
    /// profile.
    pub fn add_run(&mut self, events: u64, metrics: &MetricsSnapshot, profile: &ProfileReport) {
        self.events += events;
        for &(name, v) in &metrics.counters {
            match self.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, acc)) => *acc += v,
                None => self.counters.push((name, v)),
            }
        }
        for &(name, v) in &metrics.gauges {
            match self.gauges.iter_mut().find(|(n, _)| *n == name) {
                Some((_, acc)) => *acc = (*acc).max(v),
                None => self.gauges.push((name, v)),
            }
        }
        for (acc, row) in self.kind_nanos.iter_mut().zip(&profile.kinds) {
            *acc += row.nanos;
        }
        for (acc, row) in self.hook_nanos.iter_mut().zip(&profile.hooks) {
            *acc += row.nanos;
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v) as f64
    }

    fn gauge(&self, name: &str) -> f64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v) as f64
    }

    fn kind(&self, k: EventKind) -> f64 {
        self.kind_nanos[k as usize] as f64
    }

    fn hook(&self, h: HookKind) -> f64 {
        self.hook_nanos[h as usize] as f64
    }

    /// The full per-layer table, in `BENCHMARK.json` order. Every metric is
    /// present on every workload; a layer a workload does not exercise
    /// reports 0.
    pub fn metrics(&self) -> Vec<Metric> {
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let events = self.events as f64;
        let handled: f64 = self.kind_nanos.iter().sum::<u64>() as f64;
        let traced_ns = self.traced_wall_s * 1e9;
        let delivered = self.counter("blocks_delivered");
        let full_solves = self.counter("solver_full_solves");

        let mut out = vec![
            Metric::new("desim.events", events, "count"),
            Metric::new("desim.scheduled", self.counter("events_scheduled"), "count"),
            Metric::new("desim.cancelled", self.counter("events_cancelled"), "count"),
            Metric::new(
                "desim.rescheduled",
                self.counter("events_rescheduled"),
                "count",
            ),
            Metric::new(
                "desim.max_pending",
                self.gauge("max_pending_events"),
                "count",
            ),
            Metric::new(
                "desim.loop_ns_per_event",
                per((traced_ns - handled).max(0.0), events),
                "ns/event",
            ),
            Metric::new(
                "netsim.runner.ns_per_event",
                per(self.untraced_wall_s * 1e9, self.untraced_events as f64),
                "ns/event",
            ),
            Metric::new(
                "netsim.runner.allocs_per_event",
                per(self.untraced_allocs as f64, self.untraced_events as f64),
                "allocs/event",
            ),
        ];
        let self_ns = [
            (
                "control",
                self.kind(EventKind::Control) - self.hook(HookKind::OnControl),
            ),
            (
                "block_arrive",
                self.kind(EventKind::BlockArrive) - self.hook(HookKind::OnBlockReceived),
            ),
            (
                "block_done",
                self.kind(EventKind::BlockDone) - self.hook(HookKind::OnBlockSent),
            ),
            (
                "timer",
                self.kind(EventKind::Timer) - self.hook(HookKind::OnTimer),
            ),
            ("link_change", self.kind(EventKind::LinkChange)),
            (
                "lifecycle",
                self.kind(EventKind::Lifecycle)
                    - self.hook(HookKind::OnPeerFailed)
                    - self.hook(HookKind::OnShutdown),
            ),
        ];
        for (name, ns) in self_ns {
            out.push(Metric::new(
                format!("netsim.runner.self_ns.{name}"),
                ns.max(0.0),
                "ns",
            ));
        }
        out.extend([
            Metric::new("netsim.network.full_solves", full_solves, "count"),
            Metric::new(
                "netsim.network.fast_admit",
                self.counter("solver_fast_admit"),
                "count",
            ),
            Metric::new(
                "netsim.network.fast_remove",
                self.counter("solver_fast_remove"),
                "count",
            ),
            Metric::new(
                "netsim.network.fast_growth",
                self.counter("solver_fast_growth"),
                "count",
            ),
            Metric::new(
                "netsim.network.flows_per_solve",
                per(self.counter("solver_flows_solved"), full_solves),
                "flows/solve",
            ),
            Metric::new(
                "netsim.network.links_per_solve",
                per(self.counter("solver_links_solved"), full_solves),
                "links/solve",
            ),
            Metric::new(
                "netsim.network.max_comp_flows",
                self.gauge("solver_max_comp_flows"),
                "count",
            ),
            Metric::new(
                "netsim.network.conn_schedules",
                self.counter("conn_schedules"),
                "count",
            ),
            Metric::new(
                "netsim.network.conn_cancels",
                self.counter("conn_cancels"),
                "count",
            ),
        ]);
        let s = &self.service;
        out.extend([
            Metric::new("netsim.service.arrivals", s.arrivals as f64, "count"),
            Metric::new("netsim.service.admitted", s.admitted as f64, "count"),
            Metric::new("netsim.service.completed", s.completed as f64, "count"),
            Metric::new(
                "netsim.service.queued_at_end",
                s.queued_at_end as f64,
                "count",
            ),
            Metric::new(
                "netsim.service.max_concurrent",
                s.max_concurrent as f64,
                "count",
            ),
        ]);
        let core_layers = [
            Layer::BlockReceived,
            Layer::BlockSent,
            Layer::Timer,
            Layer::Peering,
            Layer::Diff,
            Layer::Request,
        ];
        let overlay_layers = [Layer::Ransub, Layer::Tree];
        for layer in core_layers {
            self.push_layer(&mut out, layer);
        }
        out.extend([
            Metric::new(
                "core.dup_ratio",
                per(self.hooks.duplicates as f64, delivered),
                "ratio",
            ),
            Metric::new(
                "core.ctrl_per_block",
                per(self.counter("control_messages"), delivered),
                "msgs/block",
            ),
            Metric::new(
                "core.ctrl_bytes_per_block",
                per(self.counter("control_bytes"), delivered),
                "B/block",
            ),
        ]);
        for layer in overlay_layers {
            self.push_layer(&mut out, layer);
        }
        for sys in [
            System::BitTorrent,
            System::SplitStream,
            System::Bullet,
            System::BulletPrime,
        ] {
            let c = self.systems[sys as usize];
            let p = sys.prefix();
            out.extend([
                Metric::new(format!("{p}.wall_s"), c.wall_s, "s"),
                Metric::new(format!("{p}.events"), c.events as f64, "count"),
                Metric::new(
                    format!("{p}.ns_per_event"),
                    per(c.wall_s * 1e9, c.events as f64),
                    "ns/event",
                ),
            ]);
        }
        let e = &self.executor;
        out.extend([
            Metric::new("lab.executor.cells", e.cells as f64, "count"),
            Metric::new("lab.executor.cell_p50_s", e.cell_p50_s, "s"),
            Metric::new("lab.executor.cell_max_s", e.cell_max_s, "s"),
            Metric::new("lab.executor.busy_frac", e.busy_frac, "fraction"),
            Metric::new("lab.executor.idle_s", e.idle_s, "s"),
            Metric::new(
                "trace.overhead_ratio",
                per(self.traced_wall_s, self.untraced_wall_s),
                "ratio",
            ),
        ]);
        out
    }

    fn push_layer(&self, out: &mut Vec<Metric>, layer: Layer) {
        let i = layer as usize;
        out.push(Metric::new(
            format!("{}.calls", layer.name()),
            self.hooks.calls[i] as f64,
            "count",
        ));
        out.push(Metric::new(
            format!("{}.ns", layer.name()),
            self.hooks.nanos[i] as f64,
            "ns",
        ));
    }
}
