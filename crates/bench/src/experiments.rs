//! One function per figure of the paper's evaluation (§4).
//!
//! Each function assembles the topology, workload and protocol variants of
//! the corresponding figure, runs them on the emulator and returns a
//! [`Figure`] whose series carry the same legends the paper uses. The `lab`
//! scenario registry runs them by name (`lab run figNN`), and integration
//! tests and examples can call them directly.
//!
//! Default workloads are reduced (≈1/10 of the paper's byte volume, 40
//! instead of 100 nodes) so the whole suite runs in minutes; `--full`
//! restores the paper's sizes. `docs/EXPERIMENTS.md` is the scenario book:
//! one entry per figure with its paper mapping, sweep and expected result.

use desim::{RngFactory, SimDuration, SimTime};
use dissem_codec::FileSpec;
use netsim::dynamics::{crash_wave_schedule, cross_traffic_square_wave, flash_crowd_schedule};
use netsim::units::{mbps, to_mbps};
use netsim::{
    run_service, topology, ArrivalGen, ChangeSchedule, NodeEvent, NodeId, NodeSample,
    ServiceConfig, ServiceReport, SwarmShape, SwarmSource, TimeSeries,
};

use bullet_prime::{
    build_service_runner, Config, FlashShape, OutstandingPolicy, PeerSetPolicy, RequestStrategy,
    ServiceSwarms,
};
use shotgun::{
    parallel_rsync_times, planetlab_client_bandwidths, simulate_shotgun, RsyncModelParams,
};

use crate::bounds;
use crate::cdf::{improvement_at, Figure, Series};
use crate::opts::CommonOpts;
use crate::systems::{
    cascade_schedule, collect_times, paper_dynamic_schedule, run_bullet_prime_churn,
    run_bullet_prime_cross, run_bullet_prime_with, run_concurrent_meshes, run_system, SystemKind,
};
use crate::tap::drive;

fn limit(opts: &CommonOpts) -> SimDuration {
    SimDuration::from_secs_f64(opts.time_limit)
}

/// Shared core of Figs 4 and 5: the four systems plus (for Fig 4) the two
/// analytic bounds, on the standard lossy ModelNet mesh.
fn overall_comparison(opts: &CommonOpts, dynamic: bool) -> Figure {
    let nodes = opts.nodes_or(60, 100);
    let file = FileSpec::new(opts.file_bytes_or(20.0, 100.0), opts.block_bytes_or(16));
    let rng = RngFactory::new(opts.seed);

    let (id, title) = if dynamic {
        (
            "Figure 5",
            "download time CDF under synthetic bandwidth changes and random losses",
        )
    } else {
        (
            "Figure 4",
            "download time CDF under random network packet losses",
        )
    };
    let mut fig = Figure::new(
        id,
        format!("{title} ({nodes} nodes, {} blocks)", file.num_blocks()),
    );

    if !dynamic {
        let topo = topology::modelnet_mesh(nodes, 0.03, &rng);
        fig.push(Series::cdf(
            "Physical Link Speed Possible",
            &bounds::physical_limit(&topo, file),
        ));
        fig.push(Series::cdf(
            "MACEDON TCP feasible + startup",
            &bounds::tcp_feasible(&topo, file, 10.0),
        ));
    }

    let schedule: ChangeSchedule = if dynamic {
        paper_dynamic_schedule(nodes, opts.time_limit, &rng)
    } else {
        Vec::new()
    };

    for kind in SystemKind::all() {
        let topo = topology::modelnet_mesh(nodes, 0.03, &rng);
        let run = run_system(kind, topo, file, &rng, &schedule, limit(opts));
        fig.push(run.cdf(kind.label()));
    }

    // Headline numbers the paper quotes in §4.2.
    let find = |fig: &Figure, name: &str| {
        fig.series
            .iter()
            .find(|s| s.label.starts_with(name))
            .cloned()
            .expect("series present")
    };
    let ours = find(&fig, "BulletPrime");
    let mut best_other_median = f64::INFINITY;
    let mut best_other_slowest = f64::INFINITY;
    for name in ["Bullet", "BitTorrent", "SplitStream"] {
        let s = fig
            .series
            .iter()
            .find(|s| s.label.starts_with(name) && !s.label.starts_with("BulletPrime"))
            .expect("series present");
        best_other_median = best_other_median.min(s.quantile(0.5));
        best_other_slowest = best_other_slowest.min(s.max_x());
    }
    fig.note(format!(
        "BulletPrime median {:.1}s vs best other {:.1}s ({:.0}% faster); slowest {:.1}s vs {:.1}s ({:.0}% faster)",
        ours.quantile(0.5),
        best_other_median,
        100.0 * (best_other_median - ours.quantile(0.5)) / best_other_median,
        ours.max_x(),
        best_other_slowest,
        100.0 * (best_other_slowest - ours.max_x()) / best_other_slowest,
    ));
    fig.note(if dynamic {
        "paper: BulletPrime faster by 32%-70% under dynamic conditions".to_string()
    } else {
        "paper: BulletPrime ~25% faster overall; slowest receiver 37% faster".to_string()
    });
    fig
}

/// Figure 4: overall comparison under static random losses.
pub fn fig04(opts: &CommonOpts) -> Figure {
    overall_comparison(opts, false)
}

/// Figure 5: overall comparison under the synthetic bandwidth-change scenario.
pub fn fig05(opts: &CommonOpts) -> Figure {
    overall_comparison(opts, true)
}

/// Figure 5w (beyond the paper): one cell of the snapshot/fork warm-up
/// study. Bullet′ joins and transfers for
/// [`FIG05W_WARMUP_SECS`](crate::warmup::FIG05W_WARMUP_SECS) virtual
/// seconds, then the "paper" dynamics variant (the §4.1 correlated
/// bandwidth decreases) applies for the rest of the run. Run standalone
/// this is an ordinary uninterrupted simulation; under `lab sweep`/`lab
/// bench` the scenario's warm-up hooks (see [`crate::warmup`]) let the
/// executor simulate the shared warm-up once per seed and fork the "calm" /
/// "paper" / "storm" variants from the checkpoint.
pub fn fig05w(opts: &CommonOpts) -> Figure {
    crate::warmup::fig05w_fresh(opts, "paper")
}

/// Figure 5ts (beyond the paper): the Figure-5 dynamic scenario observed
/// *while it runs*. A run-time probe samples every receiver on a virtual-time
/// tick (`--tick`, default 2 s) and the figure plots goodput over time —
/// mean, 10th and 90th percentile across the active receivers — plus the mean
/// duplicate-block percentage and mean sender-set size. This is the
/// bandwidth-over-time view end-of-run CDFs cannot show: the correlated
/// bandwidth cuts land every 20 s and the curves show Bullet′ re-converging
/// after each one.
pub fn fig05ts(opts: &CommonOpts) -> Figure {
    let nodes = opts.nodes_or(60, 100);
    let file = FileSpec::new(opts.file_bytes_or(20.0, 100.0), opts.block_bytes_or(16));
    let rng = RngFactory::new(opts.seed);
    let tick = opts.tick.unwrap_or(2.0);

    let topo = topology::modelnet_mesh(nodes, 0.03, &rng);
    let schedule = paper_dynamic_schedule(nodes, opts.time_limit, &rng);
    let cfg = Config::new(file);
    let (run, report, _) = crate::systems::run_bullet_prime_timeseries(
        topo,
        &cfg,
        &rng,
        &schedule,
        limit(opts),
        SimDuration::from_secs_f64(tick),
    );
    let series = report
        .timeseries
        .expect("run_bullet_prime_timeseries installs a probe");

    let mut fig = Figure::new(
        "Figure 5ts",
        format!(
            "per-receiver goodput over time under synthetic bandwidth changes \
             ({nodes} nodes, {:.0} s tick)",
            tick
        ),
    );
    fig.x_label = "time (s)".into();
    fig.y_label = "goodput (Mbps)".into();
    push_goodput_series(&mut fig, &series);
    fig.push(Series::xy(
        "mean duplicate blocks (%)",
        series.mean_over_active(1, |n| n.duplicate_ratio * 100.0),
    ));
    fig.push(Series::xy(
        "mean sender-set size",
        series.mean_over_active(1, |n| n.senders as f64),
    ));

    let mean = &fig.series[0];
    let peak = mean.points.iter().map(|&(_, y)| y).fold(0.0, f64::max);
    fig.note(format!(
        "{} samples at a {tick:.0} s tick; peak mean goodput {peak:.2} Mbps; median download {:.1} s",
        series.samples.len(),
        Series::cdf("tmp", &run.times).quantile(0.5),
    ));
    fig.note(
        "probe series: goodput differenced per tick from cumulative useful bytes; \
         duplicate ratio and peer-set sizes sampled instantaneously"
            .to_string(),
    );
    fig
}

/// The mean, p10 and p90 receiver goodput (Mbps) over time of a probe
/// series, receivers only.
fn push_goodput_series(fig: &mut Figure, series: &TimeSeries) {
    let mbps = |n: &NodeSample| n.goodput_bps / 1e6;
    fig.push(Series::xy(
        "mean receiver goodput (Mbps)",
        series.mean_over_active(1, mbps),
    ));
    for (label, q) in [("p10", 0.10), ("p90", 0.90)] {
        fig.push(Series::xy(
            format!("{label} receiver goodput (Mbps)"),
            series.quantile_over_active(1, q, mbps),
        ));
    }
}

/// Figure 6: impact of the request strategy.
pub fn fig06(opts: &CommonOpts) -> Figure {
    let nodes = opts.nodes_or(40, 100);
    let file = FileSpec::new(opts.file_bytes_or(10.0, 100.0), opts.block_bytes_or(16));
    let rng = RngFactory::new(opts.seed);
    let mut fig = Figure::new(
        "Figure 6",
        format!("request strategies under random losses ({nodes} nodes)"),
    );
    let strategies = [
        (
            "BulletPrime rarest random request strategy",
            RequestStrategy::RarestRandom,
        ),
        (
            "BulletPrime random request strategy",
            RequestStrategy::Random,
        ),
        (
            "BulletPrime rarest request strategy",
            RequestStrategy::Rarest,
        ),
        (
            "BulletPrime first request strategy",
            RequestStrategy::FirstEncountered,
        ),
    ];
    for (label, strategy) in strategies {
        let topo = topology::modelnet_mesh(nodes, 0.03, &rng);
        let mut cfg = Config::new(file);
        cfg.request_strategy = strategy;
        let (run, _) = run_bullet_prime_with(topo, &cfg, &rng, &Vec::new(), limit(opts));
        fig.push(Series::cdf(label, &run.times));
    }
    let rr = fig.series[0].clone();
    let first = fig.series[3].clone();
    fig.note(format!(
        "rarest-random median {:.1}s vs first-encountered {:.1}s ({:.0}% faster); paper: first-encountered performs worst",
        rr.quantile(0.5),
        first.quantile(0.5),
        100.0 * improvement_at(&rr, &first, 0.5)
    ));
    fig
}

/// Shared core of Figs 7–9: fixed peer-set sizes vs the dynamic policy.
fn peer_sizing(
    opts: &CommonOpts,
    id: &str,
    title: &str,
    mk_topology: impl Fn(&RngFactory, usize) -> netsim::Topology,
    file: FileSpec,
    sizes: &[usize],
    schedule: &ChangeSchedule,
) -> Figure {
    let nodes = opts.nodes_or(40, 100);
    let rng = RngFactory::new(opts.seed);
    let mut fig = Figure::new(id, format!("{title} ({nodes} nodes)"));
    for &k in sizes {
        let topo = mk_topology(&rng, nodes);
        let mut cfg = Config::new(file);
        cfg.peer_policy = PeerSetPolicy::Fixed(k);
        let (run, _) = run_bullet_prime_with(topo, &cfg, &rng, schedule, limit(opts));
        fig.push(Series::cdf(
            format!("BulletPrime, {k} senders, {k} receivers"),
            &run.times,
        ));
    }
    let topo = mk_topology(&rng, nodes);
    let cfg = Config::new(file);
    let (run, _) = run_bullet_prime_with(topo, &cfg, &rng, schedule, limit(opts));
    fig.push(Series::cdf(
        "BulletPrime, dyn. #senders,#receivers",
        &run.times,
    ));

    let dynamic = fig.series.last().cloned().expect("just pushed");
    let best_static = fig.series[..fig.series.len() - 1]
        .iter()
        .map(|s| s.quantile(0.5))
        .fold(f64::INFINITY, f64::min);
    fig.note(format!(
        "dynamic median {:.1}s vs best static {:.1}s; paper: no static size wins everywhere, dynamic tracks the best",
        dynamic.quantile(0.5),
        best_static
    ));
    fig
}

/// Figure 7: peer-set sizes under random losses.
pub fn fig07(opts: &CommonOpts) -> Figure {
    let file = FileSpec::new(opts.file_bytes_or(10.0, 100.0), opts.block_bytes_or(16));
    peer_sizing(
        opts,
        "Figure 7",
        "static peer-set sizes 6/10/14 vs dynamic under random losses",
        |rng, n| topology::modelnet_mesh(n, 0.03, rng),
        file,
        &[6, 10, 14],
        &Vec::new(),
    )
}

/// Figure 8: peer-set sizes under the synthetic bandwidth-change scenario.
pub fn fig08(opts: &CommonOpts) -> Figure {
    let nodes = opts.nodes_or(40, 100);
    let file = FileSpec::new(opts.file_bytes_or(10.0, 100.0), opts.block_bytes_or(16));
    let rng = RngFactory::new(opts.seed);
    let schedule = paper_dynamic_schedule(nodes, opts.time_limit, &rng);
    peer_sizing(
        opts,
        "Figure 8",
        "static peer-set sizes 6/10/14 vs dynamic under bandwidth changes and losses",
        |rng, n| topology::modelnet_mesh(n, 0.03, rng),
        file,
        &[6, 10, 14],
        &schedule,
    )
}

/// Figure 9: peer-set sizes on the constrained-access topology (no losses).
pub fn fig09(opts: &CommonOpts) -> Figure {
    let file = FileSpec::new(opts.file_bytes_or(4.0, 10.0), opts.block_bytes_or(16));
    peer_sizing(
        opts,
        "Figure 9",
        "static peer-set sizes 10/14 vs dynamic with 800 Kbps access links, no losses",
        |_rng, n| topology::constrained_access(n),
        file,
        &[10, 14],
        &Vec::new(),
    )
}

/// Shared core of Figs 10–12: fixed outstanding-request windows vs dynamic.
#[allow(clippy::too_many_arguments)] // one slot per experiment knob; a builder would obscure the 1:1 mapping to the figures
fn outstanding_sizing(
    opts: &CommonOpts,
    id: &str,
    title: &str,
    topo_builder: impl Fn(&RngFactory, usize) -> netsim::Topology,
    nodes: usize,
    file: FileSpec,
    windows: &[u32],
    schedule: &ChangeSchedule,
) -> Figure {
    let rng = RngFactory::new(opts.seed);
    let mut fig = Figure::new(id, format!("{title} ({nodes} nodes)"));
    // The paper runs this study with up to 5 senders per node so the
    // per-connection window, not the peer count, is the variable under test.
    let peers = PeerSetPolicy::Fixed(5);
    for &w in windows {
        let topo = topo_builder(&rng, nodes);
        let mut cfg = Config::new(file);
        cfg.min_peers = 5;
        cfg.peer_policy = peers;
        cfg.outstanding_policy = OutstandingPolicy::Fixed(w);
        let (run, _) = run_bullet_prime_with(topo, &cfg, &rng, schedule, limit(opts));
        fig.push(Series::cdf(
            format!("BulletPrime , {w:<4} outst"),
            &run.times,
        ));
    }
    let topo = topo_builder(&rng, nodes);
    let mut cfg = Config::new(file);
    cfg.min_peers = 5;
    cfg.peer_policy = peers;
    let (run, _) = run_bullet_prime_with(topo, &cfg, &rng, schedule, limit(opts));
    fig.push(Series::cdf("BulletPrime , dyn  outst", &run.times));

    let dynamic = fig.series.last().cloned().expect("just pushed");
    let best_static = fig.series[..fig.series.len() - 1]
        .iter()
        .map(|s| s.quantile(0.5))
        .fold(f64::INFINITY, f64::min);
    fig.note(format!(
        "dynamic median {:.1}s vs best static median {:.1}s",
        dynamic.quantile(0.5),
        best_static
    ));
    fig
}

/// Figure 10: outstanding-request windows on clean high-BDP links.
pub fn fig10(opts: &CommonOpts) -> Figure {
    let nodes = opts.nodes.unwrap_or(25);
    let file = FileSpec::new(opts.file_bytes_or(8.0, 100.0), opts.block_bytes_or(8));
    outstanding_sizing(
        opts,
        "Figure 10",
        "per-peer outstanding blocks, 10 Mbps / 100 ms links, no losses",
        |rng, n| topology::high_bdp_clique(n, 0.0, rng),
        nodes,
        file,
        &[3, 6, 9, 15, 50],
        &Vec::new(),
    )
}

/// Figure 11: outstanding-request windows under random losses.
pub fn fig11(opts: &CommonOpts) -> Figure {
    let nodes = opts.nodes.unwrap_or(25);
    let file = FileSpec::new(opts.file_bytes_or(8.0, 100.0), opts.block_bytes_or(8));
    outstanding_sizing(
        opts,
        "Figure 11",
        "per-peer outstanding blocks, 10 Mbps / 100 ms links, 0-1.5% loss",
        |rng, n| topology::high_bdp_clique(n, 0.015, rng),
        nodes,
        file,
        &[3, 6, 15, 50],
        &Vec::new(),
    )
}

/// Figure 12: outstanding-request windows under cascading slowdowns towards a
/// single victim node.
pub fn fig12(opts: &CommonOpts) -> Figure {
    let fast_nodes = 7; // Source + 6 well-connected peers; node 7 is the victim.
    let file = FileSpec::new(opts.file_bytes_or(10.0, 100.0), opts.block_bytes_or(8));
    // The paper degrades one link every 25 s over a ~100 MB download; keep the
    // number of degradations seen during a reduced download the same by
    // scaling the period with the file size.
    let period = 25.0 * (file.file_bytes as f64 / (100.0 * 1024.0 * 1024.0));
    let schedule = cascade_schedule(fast_nodes, period.max(1.0));
    let rng = RngFactory::new(opts.seed);
    let mut fig = Figure::new(
        "Figure 12",
        "outstanding blocks under cascading 100 Kbps degradations of the victim's links",
    );
    for w in [9u32, 15, 50] {
        let topo = topology::cascade_topology(fast_nodes);
        let mut cfg = Config::new(file);
        cfg.outstanding_policy = OutstandingPolicy::Fixed(w);
        cfg.peer_policy = PeerSetPolicy::Fixed(6);
        let (run, _) = run_bullet_prime_with(topo, &cfg, &rng, &schedule, limit(opts));
        fig.push(Series::cdf(format!("BulletPrime , {w} outst"), &run.times));
    }
    let topo = topology::cascade_topology(fast_nodes);
    let mut cfg = Config::new(file);
    cfg.peer_policy = PeerSetPolicy::Fixed(6);
    let (run, _) = run_bullet_prime_with(topo, &cfg, &rng, &schedule, limit(opts));
    fig.push(Series::cdf("BulletPrime , dyn  outst", &run.times));

    let dynamic = fig.series.last().cloned().expect("just pushed");
    let best_static_slowest = fig.series[..fig.series.len() - 1]
        .iter()
        .map(Series::max_x)
        .fold(f64::INFINITY, f64::min);
    fig.note(format!(
        "slowest (victim) node: dynamic {:.1}s vs best static {:.1}s ({:.0}% faster); paper: dynamic beats static by 7-22% for the victim",
        dynamic.max_x(),
        best_static_slowest,
        100.0 * (best_static_slowest - dynamic.max_x()) / best_static_slowest,
    ));
    fig
}

/// Figure 13: average block inter-arrival times (the "last-block problem"
/// analysis) plus the §4.6 overage-vs-encoding-overhead comparison.
pub fn fig13(opts: &CommonOpts) -> Figure {
    let nodes = opts.nodes_or(60, 100);
    let file = FileSpec::new(opts.file_bytes_or(20.0, 100.0), opts.block_bytes_or(16));
    let rng = RngFactory::new(opts.seed);
    let topo = topology::modelnet_mesh(nodes, 0.03, &rng);
    let cfg = Config::new(file);
    let (_, nodes_out) = run_bullet_prime_with(topo, &cfg, &rng, &Vec::new(), limit(opts));

    // Average the i-th inter-arrival gap across receivers.
    let mut sums: Vec<f64> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut overages = Vec::new();
    let mut completions = Vec::new();
    for node in nodes_out.iter().skip(1) {
        let gaps = node.metrics().inter_arrival_times();
        for (i, g) in gaps.iter().enumerate() {
            if i >= sums.len() {
                sums.resize(i + 1, 0.0);
                counts.resize(i + 1, 0);
            }
            sums[i] += g;
            counts[i] += 1;
        }
        overages.push(node.metrics().last_blocks_overage(20));
        if let Some(c) = node.metrics().completed_at {
            completions.push(c);
        }
    }
    let series: Vec<(f64, f64)> = sums
        .iter()
        .zip(counts.iter())
        .enumerate()
        .filter(|(_, (_, &c))| c > 0)
        .map(|(i, (&s, &c))| ((i + 1) as f64, s / f64::from(c)))
        .collect();

    let mut fig = Figure::new(
        "Figure 13",
        format!("average block inter-arrival time by retrieval order ({nodes} nodes)"),
    );
    fig.x_label = "block number (retrieval order)".into();
    fig.y_label = "inter-arrival time (s)".into();
    fig.push(Series::xy("Average", series));

    let mean_overage = overages.iter().sum::<f64>() / overages.len().max(1) as f64;
    let mean_completion = completions.iter().sum::<f64>() / completions.len().max(1) as f64;
    let encoding_cost = 0.04 * mean_completion;
    fig.note(format!(
        "last-20-block overage {:.2}s vs 4% source-encoding cost {:.2}s — encoding {} clearly beneficial (paper: 8.38s vs 7.60s, not clearly beneficial)",
        mean_overage,
        encoding_cost,
        if mean_overage > encoding_cost { "would be" } else { "is not" }
    ));
    fig
}

/// Figure 14: the wide-area (PlanetLab-like) comparison of all four systems.
pub fn fig14(opts: &CommonOpts) -> Figure {
    let nodes = opts.nodes_or(41, 41);
    let file = FileSpec::new(opts.file_bytes_or(10.0, 50.0), opts.block_bytes_or(100));
    let rng = RngFactory::new(opts.seed);
    let mut fig = Figure::new(
        "Figure 14",
        format!("wide-area (PlanetLab-like) comparison, {nodes} sites, 100 KB blocks"),
    );
    for kind in SystemKind::all() {
        let topo = topology::planetlab_like(nodes, &rng);
        let run = run_system(kind, topo, file, &rng, &Vec::new(), limit(opts));
        fig.push(run.cdf(kind.label()));
    }
    let ours = fig.series[0].clone();
    let bt = fig
        .series
        .iter()
        .find(|s| s.label.starts_with("BitTorrent"))
        .cloned()
        .expect("BitTorrent series present");
    fig.note(format!(
        "slowest BulletPrime node {:.0}s vs slowest BitTorrent node {:.0}s (paper: ~400s sooner on a 50MB download)",
        ours.max_x(),
        bt.max_x()
    ));
    fig
}

/// Figure 16 (beyond the paper): Bullet′ under crash churn. A fraction of
/// the receivers crashes — connections reset, no goodbye — at instants spread
/// over the middle of the transfer; the figure shows the completion-time CDF
/// of the *surviving* receivers for 0%/10%/25%/50% crash fractions.
pub fn fig16(opts: &CommonOpts) -> Figure {
    let nodes = opts.nodes_or(40, 100);
    let file = FileSpec::new(opts.file_bytes_or(10.0, 100.0), opts.block_bytes_or(16));
    let rng = RngFactory::new(opts.seed);
    let mut fig = Figure::new(
        "Figure 16",
        format!("survivor download-time CDF under receiver crash waves ({nodes} nodes)"),
    );

    // Calibrate the crash window off the churn-free run so "mid-transfer"
    // stays mid-transfer at every workload scale.
    let topo = topology::modelnet_mesh(nodes, 0.03, &rng);
    let cfg = Config::new(file);
    let (clean, _) = run_bullet_prime_with(topo, &cfg, &rng, &Vec::new(), limit(opts));
    let median = Series::cdf("tmp", &clean.times).quantile(0.5);
    fig.push(Series::cdf("BulletPrime, no churn", &clean.times));

    for fraction in [0.10, 0.25, 0.50] {
        let window_start = SimTime::from_secs_f64(0.2 * median);
        let window_end = SimTime::from_secs_f64(0.6 * median);
        let churn = crash_wave_schedule(nodes, fraction, window_start, window_end, &rng);
        let crashed = churn.len();
        let topo = topology::modelnet_mesh(nodes, 0.03, &rng);
        let cfg = Config::new(file);
        let (run, report, _) = run_bullet_prime_churn(topo, &cfg, &rng, &churn, limit(opts));
        fig.push(run.cdf(format!(
            "BulletPrime, {:.0}% crash ({crashed} nodes)",
            fraction * 100.0
        )));
        debug_assert_eq!(
            report.departed.iter().filter(|&&d| d).count(),
            crashed,
            "every scheduled crash must have taken effect"
        );
    }

    let worst = fig.series.last().expect("pushed above");
    fig.note(format!(
        "no-churn median {:.1}s vs 50%-crash survivor median {:.1}s; crashed nodes are excluded from the stop condition and the CDF",
        fig.series[0].quantile(0.5),
        worst.quantile(0.5),
    ));
    fig
}

/// Figure 17 (beyond the paper): a flash crowd. Only the source and a quarter
/// of the receivers are present at t = 0; the rest join in a wave across the
/// middle of the transfer. The CDF shows per-receiver *download duration*
/// (completion time minus join time), so late joiners are comparable to the
/// initial group.
pub fn fig17(opts: &CommonOpts) -> Figure {
    let nodes = opts.nodes_or(40, 100);
    let file = FileSpec::new(opts.file_bytes_or(10.0, 100.0), opts.block_bytes_or(16));
    let rng = RngFactory::new(opts.seed);
    let mut fig = Figure::new(
        "Figure 17",
        format!("download-duration CDF with a flash-crowd join wave ({nodes} nodes)"),
    );

    // Everyone-from-the-start baseline, which also calibrates the join window.
    let topo = topology::modelnet_mesh(nodes, 0.03, &rng);
    let cfg = Config::new(file);
    let (clean, _) = run_bullet_prime_with(topo, &cfg, &rng, &Vec::new(), limit(opts));
    let median = Series::cdf("tmp", &clean.times).quantile(0.5);
    fig.push(Series::cdf("BulletPrime, all present at t=0", &clean.times));

    let initial = 1 + (nodes - 1) / 4; // source + 25% of the receivers
    let churn = flash_crowd_schedule(
        nodes,
        initial,
        SimTime::from_secs_f64(0.25 * median),
        SimTime::from_secs_f64(0.75 * median),
    );
    let topo = topology::modelnet_mesh(nodes, 0.03, &rng);
    let cfg = Config::new(file);
    let (_, report, _) = run_bullet_prime_churn(topo, &cfg, &rng, &churn, limit(opts));
    let join_time = |node: usize| -> f64 {
        churn
            .iter()
            .find_map(|(at, ev)| match ev {
                NodeEvent::Join(n) if n.index() == node => Some(at.as_secs_f64()),
                _ => None,
            })
            .unwrap_or(0.0)
    };
    // Late joiners are timed from their join instant.
    let mut run = collect_times(&report);
    for (i, t) in run.times.iter_mut().enumerate() {
        *t -= join_time(i + 1);
    }
    fig.push(run.cdf(format!(
        "BulletPrime, flash crowd ({} join late)",
        nodes - initial
    )));

    fig.note(format!(
        "all-at-start median {:.1}s vs flash-crowd per-node median {:.1}s (late joiners measured from their join instant)",
        fig.series[0].quantile(0.5),
        fig.series[1].quantile(0.5),
    ));
    fig
}

/// Figure 18 (beyond the paper): two concurrent Bullet′ meshes sharing one
/// core bottleneck. All core paths of a [`topology::shared_core_mesh`] ride a
/// single lossy 2 Mbps link, so *every* byte of overlay traffic — from both
/// meshes — contends there. The figure compares the download-time CDF of a
/// lone mesh on that substrate against two independent meshes (separate
/// sources, trees, RanSub overlays) running concurrently: under max-min fair
/// sharing each mesh converges to roughly half the lone mesh's rate, which
/// the per-path TCP-equation model of earlier revisions could not express at
/// all (disjoint pairs never contended).
pub fn fig18(opts: &CommonOpts) -> Figure {
    let total = opts.nodes_or(32, 64);
    let mesh = (total / 2).max(2);
    let file = FileSpec::new(opts.file_bytes_or(2.0, 10.0), opts.block_bytes_or(16));
    let rng = RngFactory::new(opts.seed);
    let core = mbps(2.0);
    let loss = 0.01;
    let cfg = Config::new(file);

    let mut fig = Figure::new(
        "Figure 18",
        format!(
            "two concurrent {mesh}-node meshes sharing one lossy 2 Mbps core bottleneck \
             ({} blocks each)",
            file.num_blocks()
        ),
    );

    // Baseline: one mesh alone on the shared-core substrate.
    let topo = topology::shared_core_mesh(mesh, core, loss, &rng);
    let (single, _) = run_bullet_prime_with(topo, &cfg, &rng, &Vec::new(), limit(opts));
    fig.push(single.cdf("single mesh over the shared core"));

    // Two meshes, same substrate, twice the nodes: groups [mesh, mesh].
    let topo = topology::shared_core_mesh(2 * mesh, core, loss, &rng);
    let runs = run_concurrent_meshes(topo, &cfg, &rng, &[mesh, mesh], limit(opts));
    for (run, name) in runs.iter().zip(["mesh A", "mesh B"]) {
        fig.push(run.cdf(format!("{name} of two sharing the core")));
    }

    let single_median = fig.series[0].quantile(0.5);
    let a_median = fig.series[1].quantile(0.5);
    let b_median = fig.series[2].quantile(0.5);
    fig.note(format!(
        "single-mesh median {single_median:.1}s vs concurrent medians {a_median:.1}s / {b_median:.1}s \
         (x{:.2} / x{:.2}; fluid max-min predicts ~x2 under a saturated shared core)",
        a_median / single_median,
        b_median / single_median,
    ));
    fig.note(format!(
        "both meshes see the same bottleneck: |A - B| medians differ by {:.0}%",
        100.0 * (a_median - b_median).abs() / a_median.max(b_median),
    ));
    fig
}

/// Figure 19 (beyond the paper): a cross-traffic square wave vs Bullet′
/// adaptivity. A single mesh runs over a shared 4 Mbps core while an
/// unresponsive CBR stream occupies half of the core on a square wave
/// (period scaled with the workload). The probe time-series shows the mesh's
/// per-receiver goodput collapsing when the wave switches on and recovering
/// when it ends — the bandwidth-over-time view of dynamic adaptivity that
/// end-of-run CDFs cannot show.
pub fn fig19(opts: &CommonOpts) -> Figure {
    let nodes = opts.nodes_or(16, 32);
    let file = FileSpec::new(opts.file_bytes_or(4.0, 20.0), opts.block_bytes_or(16));
    let rng = RngFactory::new(opts.seed);
    let tick = opts.tick.unwrap_or(2.0);
    let core = mbps(4.0);
    let wave_rate = mbps(2.0);
    // One wave boundary every ~20 s on the default workload; scale the
    // period with the file so reduced runs still see several waves.
    let period = (20.0 * file.file_bytes as f64 / (4.0 * 1024.0 * 1024.0)).max(4.0);

    let topo = topology::shared_core_mesh(nodes, core, 0.0, &rng);
    let cross = cross_traffic_square_wave(
        (NodeId(0), NodeId(1)),
        wave_rate,
        SimDuration::from_secs_f64(period),
        SimDuration::from_secs_f64(opts.time_limit),
    );
    let cfg = Config::new(file);
    let (run, report, _) = run_bullet_prime_cross(
        topo,
        &cfg,
        &rng,
        &cross,
        limit(opts),
        SimDuration::from_secs_f64(tick),
    );
    let series = report
        .timeseries
        .expect("run_bullet_prime_cross installs a probe");

    let mut fig = Figure::new(
        "Figure 19",
        format!(
            "per-receiver goodput under a cross-traffic square wave \
             ({nodes} nodes, {period:.0} s period, {tick:.0} s tick)"
        ),
    );
    fig.x_label = "time (s)".into();
    fig.y_label = "goodput / occupancy (Mbps)".into();
    push_goodput_series(&mut fig, &series);
    // The wave itself, as a step series clipped to the run.
    let end = report.end_time.as_secs_f64();
    let mut wave = vec![(0.0, 0.0)];
    let mut current = 0.0;
    for &(at, ct) in &cross {
        let t = at.as_secs_f64();
        if t > end {
            break;
        }
        wave.push((t, to_mbps(current)));
        current = ct.rate;
        wave.push((t, to_mbps(current)));
    }
    wave.push((end, to_mbps(current)));
    fig.push(Series::xy("cross-traffic occupancy (Mbps)", wave));

    let mean = &fig.series[0];
    let peak = mean.points.iter().map(|&(_, y)| y).fold(0.0, f64::max);
    fig.note(format!(
        "{} samples at a {tick:.0} s tick; peak mean goodput {peak:.2} Mbps; \
         median download {:.1} s ({} unfinished)",
        series.samples.len(),
        Series::cdf("tmp", &run.times).quantile(0.5),
        run.unfinished,
    ));
    fig.note(
        "the CBR wave occupies half the shared core while on; the fluid model \
         returns the capacity to the mesh the instant the wave ends"
            .to_string(),
    );
    fig
}

/// Figure 20 (beyond the paper): the emulator's scaling trajectory. A
/// join-only Bullet′ swarm (everyone present at t = 0, no churn, no link
/// dynamics) downloads a small file over the O(n) uniform-core topology
/// ([`topology::uniform_swarm`]) at N ∈ {1,000, 5,000, 10,000}; `--nodes`
/// collapses the trajectory to that one point. Each point contributes its
/// download-time CDF plus the deterministic events-processed count; the
/// wall-clock throughput goes to stderr (and to `BENCH_scale.json` via the
/// `bench_scale` binary), **not** into the figure, so sweep output stays
/// byte-identical across machines and thread counts.
pub fn fig20(opts: &CommonOpts) -> Figure {
    let file = FileSpec::new(opts.file_bytes_or(2.0, 2.0), opts.block_bytes_or(16));
    let sizes: Vec<usize> = match opts.nodes {
        Some(n) => vec![n],
        None => vec![1_000, 5_000, 10_000],
    };
    let rng = RngFactory::new(opts.seed);
    let mut fig = Figure::new(
        "Figure 20",
        format!(
            "emulator scaling trajectory: join-only swarm on the uniform core \
             ({} blocks, N = {sizes:?})",
            file.num_blocks()
        ),
    );

    let mut events = Vec::with_capacity(sizes.len());
    for &n in &sizes {
        let topo = topology::uniform_swarm(n, &rng);
        let cfg = Config::new(file);
        let started = std::time::Instant::now();
        let mut runner = bullet_prime::build_runner(topo, &cfg, &rng);
        let report = drive(&mut runner, |r| r.run(limit(opts)));
        let wall = started.elapsed().as_secs_f64();

        let run = collect_times(&report);
        fig.push(run.cdf(format!("BulletPrime, N={n}")));
        events.push((n as f64, report.events as f64));
        fig.note(format!(
            "N={n}: {} events, virtual end {:.1}s, {} unfinished",
            report.events, run.end_time, run.unfinished
        ));
        eprintln!(
            "fig20 N={n}: {} events in {wall:.2}s wall ({:.0} events/s)",
            report.events,
            report.events as f64 / wall.max(1e-9)
        );
    }
    fig.push(Series::xy("events processed vs swarm size", events));
    fig.note(
        "wall-clock throughput is machine-local and reported on stderr / in \
         BENCH_scale.json; the figure itself is deterministic per seed"
            .to_string(),
    );
    fig
}

/// Figure 15: Shotgun vs N parallel rsync processes.
pub fn fig15(opts: &CommonOpts) -> Figure {
    let nodes = opts.nodes_or(41, 41);
    let update_bytes = opts.file_bytes_or(8.0, 24.0);
    let rng_params = RsyncModelParams::default();
    let replay_rate = rng_params.client_replay;

    let mut fig = Figure::new(
        "Figure 15",
        format!(
            "pushing a {:.0} MB update to {} nodes: Shotgun vs parallel rsync",
            update_bytes as f64 / (1024.0 * 1024.0),
            nodes - 1
        ),
    );
    fig.x_label = "completion time (s)".into();

    let shotgun = simulate_shotgun(
        nodes,
        update_bytes,
        opts.block_bytes_or(100) / 1024,
        replay_rate,
        opts.seed,
    );
    fig.push(Series::cdf(
        "Shotgun (Download Only)",
        &shotgun.download_only,
    ));
    fig.push(Series::cdf(
        "Shotgun (Download + Update)",
        &shotgun.download_plus_update,
    ));

    let clients = planetlab_client_bandwidths(nodes, opts.seed);
    for parallelism in [2usize, 4, 8, 16] {
        let times = parallel_rsync_times(&clients, parallelism, update_bytes, &rng_params);
        fig.push(Series::cdf(format!("{parallelism} parallel rsync"), &times));
    }

    let shotgun_total = fig.series[1].max_x();
    let best_rsync = fig.series[2..]
        .iter()
        .map(Series::max_x)
        .fold(f64::INFINITY, f64::min);
    fig.note(format!(
        "Shotgun download+update completes in {:.0}s vs {:.0}s for the best rsync configuration ({:.0}x faster; paper reports roughly two orders of magnitude)",
        shotgun_total,
        best_rsync,
        best_rsync / shotgun_total.max(1e-9)
    ));
    fig
}

// ---------------------------------------------------------------------------
// Open-system service scenarios (fig21 / fig22): generator-driven continuous
// swarms over a shared contended core, measured by sustained goodput and
// completion-time percentiles instead of a single finish time. The service
// manager itself lives in `netsim::service`; the Bullet′ swarm factory in
// `bullet_prime::service`. `docs/SERVICE_MODE.md` documents the model.
// ---------------------------------------------------------------------------

/// The offered-load points of fig21, in swarm arrivals per 1000 virtual
/// seconds. Ascending, so the knee (segment queueing, core saturation) sits
/// at the tail of every series.
pub const FIG21_LOADS: [f64; 4] = [16.0, 32.0, 64.0, 128.0];

/// Labels of the independent service cells a scenario runs, or `None` if
/// `name` is not an open-system service scenario. `lab serve` parallelises
/// over these cells; each is one [`run_service_point`] call.
pub fn service_points(name: &str) -> Option<Vec<String>> {
    match name {
        "fig21" => Some(
            FIG21_LOADS
                .iter()
                .map(|l| format!("load-{l:.0}-per-1000s"))
                .collect(),
        ),
        "fig22" => Some(vec!["flash-crowd".to_string()]),
        _ => None,
    }
}

/// Runs one service cell of a scenario (`index` into [`service_points`]) and
/// returns its deterministic [`ServiceReport`]. `None` for unknown scenarios
/// or out-of-range indices.
pub fn run_service_point(name: &str, index: usize, opts: &CommonOpts) -> Option<ServiceReport> {
    match name {
        "fig21" => FIG21_LOADS.get(index).map(|&load| fig21_report(load, opts)),
        "fig22" if index == 0 => Some(fig22_report(opts)),
        _ => None,
    }
}

/// The horizon of a service run: `--time-limit` verbatim under `--full`,
/// otherwise capped so the reduced suite stays fast (the closed-system
/// figures stop at AllComplete; an open system runs its whole window).
fn service_horizon(opts: &CommonOpts) -> f64 {
    if opts.full {
        opts.time_limit
    } else {
        opts.time_limit.min(1800.0)
    }
}

/// One fig21 offered-load cell: a slot pool over a shared 16 Mbps core
/// serving Poisson swarm arrivals at `load_per_1000s`, cohort and file sizes
/// drawn per swarm from seeded ranges.
fn fig21_report(load_per_1000s: f64, opts: &CommonOpts) -> ServiceReport {
    let pool = opts.nodes_or(48, 96);
    // Four segments; each arriving swarm claims one for its lifetime, so
    // past four concurrent swarms arrivals queue — the knee's mechanism.
    let slots = (pool / 4).max(2);
    let size_lo = slots.saturating_sub(2).max(2);
    let block = opts.block_bytes_or(16);
    let file_hi = opts.file_bytes_or(2.0, 8.0).max(block as u64);
    let file_lo = (file_hi / 2).max(block as u64);
    let horizon = service_horizon(opts);

    let rng = RngFactory::new(opts.seed);
    let topo = topology::shared_core_mesh(pool, mbps(16.0), 0.0, &rng);
    let core = topo.core_link(NodeId(0), NodeId(1));
    let template = Config::new(FileSpec::new(file_hi, block));
    let mut runner = build_service_runner(topo, &template, &rng);
    let mut source = ServiceSwarms::new(template, &rng, (size_lo, slots), (file_lo, file_hi));
    let cfg = ServiceConfig {
        horizon: SimTime::from_secs_f64(horizon),
        warmup: SimTime::from_secs_f64(0.15 * horizon),
        tick: SimDuration::from_secs_f64(opts.tick.unwrap_or(horizon / 60.0)),
        segment_slots: slots,
        max_arrivals: 256,
        core: Some(core),
    };
    let gen = ArrivalGen::Poisson {
        rate_per_sec: load_per_1000s / 1000.0,
    };
    run_service(&mut runner, &cfg, &gen, &mut source, &rng)
}

/// Figure 21 (beyond the paper): the open-system offered-load sweep. Swarms
/// arrive by a Poisson process over one shared 16 Mbps core, each claiming a
/// segment of the slot pool for its lifetime; the sweep raises the arrival
/// rate until segments and core saturate. Sustained goodput (measured past
/// the warmup boundary) climbs with offered load and then flattens at the
/// service capacity, while completion latency — measured from *arrival*, so
/// segment-queueing delay counts — turns the knee upward.
pub fn fig21(opts: &CommonOpts) -> Figure {
    let pool = opts.nodes_or(48, 96);
    let mut fig = Figure::new(
        "Figure 21",
        format!(
            "open-system offered-load sweep over a shared 16 Mbps core \
             ({pool}-slot pool, {:.0} s horizon)",
            service_horizon(opts)
        ),
    );
    fig.x_label = "offered load (swarm arrivals per 1000 s)".into();
    fig.y_label = "goodput (Mbps) / latency (s)".into();

    let labels = service_points("fig21").expect("fig21 is a service scenario");
    let mut goodput = Vec::new();
    let mut p50 = Vec::new();
    let mut p90 = Vec::new();
    let mut completed = Vec::new();
    let mut backlog = Vec::new();
    for (i, label) in labels.iter().enumerate() {
        let report = run_service_point("fig21", i, opts).expect("index in range");
        let x = FIG21_LOADS[i];
        let horizon = report.horizon_secs;
        goodput.push((x, report.sustained_goodput_bps / 1e6));
        p50.push((x, report.latency_quantile(0.5).unwrap_or(horizon)));
        p90.push((x, report.latency_quantile(0.9).unwrap_or(horizon)));
        completed.push((x, report.completed as f64));
        backlog.push((x, (report.in_flight_at_end + report.queued_at_end) as f64));
        fig.note(format!(
            "{label}: {} arrivals, {} admitted, {} completed, {} in flight + {} queued \
             at the horizon, peak concurrency {}, sustained {:.2} Mbps",
            report.arrivals,
            report.admitted,
            report.completed,
            report.in_flight_at_end,
            report.queued_at_end,
            report.max_concurrent,
            report.sustained_goodput_bps / 1e6,
        ));
    }
    fig.push(Series::xy("sustained goodput (Mbps)", goodput));
    fig.push(Series::xy("p50 completion latency since arrival (s)", p50));
    fig.push(Series::xy("p90 completion latency since arrival (s)", p90));
    fig.push(Series::xy("swarms completed in the window", completed));
    fig.push(Series::xy("backlog at the horizon (swarms)", backlog));
    fig.note(
        "the knee: past the pool's service capacity goodput flattens while \
         arrival-to-completion latency inflates with segment queueing"
            .to_string(),
    );
    fig
}

/// Fig22's swarm source: cohort 0 is the warm swarm (everyone present at
/// admission), every later cohort is a flash crowd (a handful of slots
/// active at admission, the rest joining over a window). `build` is shared —
/// the flash shape only changes *when* slots activate, not what they run.
struct WarmThenFlash {
    warm: ServiceSwarms,
    flash: ServiceSwarms,
}

impl SwarmSource<bullet_prime::BulletPrimeNode> for WarmThenFlash {
    fn shape(&mut self, index: usize) -> SwarmShape {
        if index == 0 {
            self.warm.shape(index)
        } else {
            self.flash.shape(index)
        }
    }

    fn build(&mut self, base: NodeId, shape: &SwarmShape) -> Vec<bullet_prime::BulletPrimeNode> {
        self.warm.build(base, shape)
    }
}

/// The fig22 service run: two half-pool swarms over a shared 16 Mbps core —
/// one warm (arrives at t = 0, fully present), one flash crowd (arrives 30 s
/// in, while the warm swarm is mid-transfer, with 4 slots active and the
/// rest joining uniformly over a 120 s window; ~10³ joiners at `--full`
/// scale).
fn fig22_report(opts: &CommonOpts) -> ServiceReport {
    let pool = opts.nodes_or(32, 2016);
    let slots = (pool / 2).max(2);
    let block = opts.block_bytes_or(16);
    let file = opts.file_bytes_or(4.0, 8.0).max(block as u64);
    let horizon = service_horizon(opts);

    let rng = RngFactory::new(opts.seed);
    let topo = topology::shared_core_mesh(pool, mbps(16.0), 0.0, &rng);
    let core = topo.core_link(NodeId(0), NodeId(1));
    let template = Config::new(FileSpec::new(file, block));
    let mut runner = build_service_runner(topo, &template, &rng);
    let warm = ServiceSwarms::new(template.clone(), &rng, (slots, slots), (file, file));
    let mut flash = ServiceSwarms::new(template, &rng, (slots, slots), (file, file));
    flash.flash = Some(FlashShape {
        initial: 4.min(slots),
        window_secs: 120.0,
    });
    let mut source = WarmThenFlash { warm, flash };
    let cfg = ServiceConfig {
        horizon: SimTime::from_secs_f64(horizon),
        // No warmup: fig22 is about the transient itself, so the goodput
        // window covers the whole horizon including the flash landing.
        warmup: SimTime::ZERO,
        tick: SimDuration::from_secs_f64(opts.tick.unwrap_or(horizon / 90.0)),
        segment_slots: slots,
        max_arrivals: 2,
        core: Some(core),
    };
    let gen = ArrivalGen::Trace(vec![SimTime::ZERO, SimTime::from_secs_f64(30.0)]);
    run_service(&mut runner, &cfg, &gen, &mut source, &rng)
}

/// Figure 22 (beyond the paper): a flash crowd arriving beside a warm swarm.
/// The service samples show the pool-wide goodput and core occupancy as the
/// joiner wave lands mid-transfer of the warm swarm, and the per-cohort
/// percentiles compare the warm swarm's completion latency against the flash
/// crowd's (which includes the join stagger).
pub fn fig22(opts: &CommonOpts) -> Figure {
    let report = fig22_report(opts);
    let pool = opts.nodes_or(32, 2016);
    let mut fig = Figure::new(
        "Figure 22",
        format!(
            "flash crowd vs a warm swarm on a shared 16 Mbps core \
             ({pool}-slot pool, {} joiners in the wave)",
            (pool / 2).max(2).saturating_sub(4.min((pool / 2).max(2))),
        ),
    );
    fig.x_label = "time (s)".into();
    fig.y_label = "goodput (Mbps) / swarms / utilisation (%)".into();

    let mut goodput = Vec::new();
    let mut in_flight = Vec::new();
    let mut utilisation = Vec::new();
    for s in &report.samples {
        goodput.push((s.time_secs, s.goodput_bps / 1e6));
        in_flight.push((s.time_secs, s.in_flight as f64));
        utilisation.push((s.time_secs, s.core_utilisation * 100.0));
    }
    fig.push(Series::xy("service goodput (Mbps)", goodput));
    fig.push(Series::xy("swarms in flight", in_flight));
    fig.push(Series::xy("core-link utilisation (%)", utilisation));

    // Cohort tags start at 1 (0 marks a slot outside any service cohort) and
    // follow admission order, so the warm swarm — admitted at t = 0, before
    // the flash — always carries tag 1, wherever it lands in reap order.
    for c in &report.cohorts {
        let who = if c.cohort == 1 {
            "warm swarm"
        } else {
            "flash crowd"
        };
        fig.note(format!(
            "{who} (cohort {}): {} slots, arrived {:.0}s, completion since arrival \
             p50 {:.1}s / p90 {:.1}s / p99 {:.1}s",
            c.cohort, c.size, c.arrival_secs, c.p50_secs, c.p90_secs, c.p99_secs,
        ));
    }
    if report.completed < report.admitted {
        fig.note(format!(
            "{} of {} swarms still in flight at the {:.0} s horizon",
            report.admitted - report.completed,
            report.admitted,
            report.horizon_secs,
        ));
    }
    fig.note(format!(
        "sustained goodput past warmup: {:.2} Mbps; peak concurrency {}",
        report.sustained_goodput_bps / 1e6,
        report.max_concurrent,
    ));
    fig
}

/// Multi-line human summary of a [`ServiceReport`] — shared by `lab serve`
/// and `diagnose --service`.
pub fn service_summary(report: &ServiceReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "horizon {:.0}s (warmup {:.0}s): {} arrivals, {} admitted, {} completed, \
         {} in flight + {} queued at the horizon",
        report.horizon_secs,
        report.warmup_secs,
        report.arrivals,
        report.admitted,
        report.completed,
        report.in_flight_at_end,
        report.queued_at_end,
    );
    let _ = writeln!(
        out,
        "sustained goodput {:.3} Mbps ({} useful bytes in the measurement window), \
         peak concurrency {}, {} events",
        report.sustained_goodput_bps / 1e6,
        report.steady_useful_bytes,
        report.max_concurrent,
        report.events,
    );
    if let (Some(p50), Some(p90), Some(p99)) = (
        report.latency_quantile(0.5),
        report.latency_quantile(0.9),
        report.latency_quantile(0.99),
    ) {
        let _ = writeln!(
            out,
            "completion latency since arrival: p50 {p50:.1}s / p90 {p90:.1}s / p99 {p99:.1}s"
        );
    }
    let shown = report.cohorts.len().min(12);
    for c in &report.cohorts[..shown] {
        let _ = writeln!(
            out,
            "  cohort {:>3}: {:>3} slots, {:>8} B file, arrived {:>7.1}s, \
             admitted {:>7.1}s, p50 {:>7.1}s, p90 {:>7.1}s",
            c.cohort, c.size, c.file_bytes, c.arrival_secs, c.admit_secs, c.p50_secs, c.p90_secs,
        );
    }
    if report.cohorts.len() > shown {
        let _ = writeln!(out, "  ... {} more cohorts", report.cohorts.len() - shown);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CommonOpts {
        CommonOpts {
            nodes: Some(8),
            file_mb: Some(0.25),
            time_limit: 1800.0,
            ..CommonOpts::default()
        }
    }

    #[test]
    fn service_points_cover_exactly_the_open_system_scenarios() {
        assert_eq!(service_points("fig21").unwrap().len(), FIG21_LOADS.len());
        assert_eq!(service_points("fig22").unwrap().len(), 1);
        assert!(service_points("fig13").is_none());
        assert!(run_service_point("fig21", FIG21_LOADS.len(), &tiny()).is_none());
        assert!(run_service_point("fig13", 0, &tiny()).is_none());
    }

    #[test]
    fn fig21_top_load_reaches_open_system_concurrency() {
        // The acceptance bar: the offered-load sweep's top point must be a
        // genuinely open system — many arrivals over the shared core, with
        // overlapping swarms.
        let opts = CommonOpts {
            nodes: Some(16),
            file_mb: Some(0.25),
            time_limit: 1500.0,
            ..CommonOpts::default()
        };
        let report = run_service_point("fig21", FIG21_LOADS.len() - 1, &opts).unwrap();
        assert!(
            report.admitted >= 8,
            "top load must admit at least 8 swarms: {report:?}"
        );
        assert!(
            report.max_concurrent >= 2,
            "swarms must overlap on the shared core: {report:?}"
        );
        assert!(report.completed > 0, "{report:?}");
        assert!(report.sustained_goodput_bps > 0.0, "{report:?}");
        let summary = service_summary(&report);
        assert!(summary.contains("sustained goodput"));
        assert!(summary.contains("cohort"));
    }

    #[test]
    fn fig22_flash_cohort_shapes_differ_from_the_warm_swarm() {
        let opts = CommonOpts {
            nodes: Some(12),
            file_mb: Some(0.25),
            time_limit: 1800.0,
            ..CommonOpts::default()
        };
        let report = run_service_point("fig22", 0, &opts).unwrap();
        assert_eq!(report.arrivals, 2, "{report:?}");
        assert_eq!(report.admitted, 2, "warm + flash both admitted: {report:?}");
        assert!(!report.samples.is_empty());
        // Cohorts are reported in reap order; the warm swarm is the one
        // admitted first and always carries tag 1.
        let warm = report.cohorts.iter().find(|c| c.cohort == 1).unwrap();
        let flash = report.cohorts.iter().find(|c| c.cohort != 1).unwrap();
        assert_eq!(warm.arrival_secs, 0.0);
        assert!(flash.arrival_secs > 0.0);
        assert_eq!(warm.size, flash.size, "both swarms span half the pool");
    }

    #[test]
    fn fig04_has_bounds_and_all_systems() {
        let fig = fig04(&tiny());
        assert_eq!(fig.series.len(), 6);
        assert!(fig.series[0].label.contains("Physical"));
        assert!(fig
            .series
            .iter()
            .any(|s| s.label.starts_with("BulletPrime")));
        assert!(!fig.notes.is_empty());
        // The physical bound must be the fastest curve.
        let phys = fig.series[0].max_x();
        for s in &fig.series[2..] {
            assert!(s.max_x() >= phys, "{} beat the physical limit", s.label);
        }
    }

    #[test]
    fn fig05ts_produces_time_series_with_probe_samples() {
        let mut opts = tiny();
        opts.tick = Some(1.0);
        let fig = fig05ts(&opts);
        assert_eq!(fig.series.len(), 5);
        let mean = &fig.series[0];
        assert!(mean.points.len() >= 3, "expected several probe samples");
        // Time axis starts at 0 and is strictly increasing on the tick.
        assert_eq!(mean.points[0].0, 0.0);
        for w in mean.points.windows(2) {
            assert!((w[1].0 - w[0].0 - 1.0).abs() < 1e-9, "1 s tick expected");
        }
        // Somebody downloaded something at some point.
        assert!(mean.points.iter().any(|&(_, y)| y > 0.0));
        // All five series share the sampling instants.
        for s in &fig.series[1..] {
            assert_eq!(s.points.len(), mean.points.len());
        }
    }

    #[test]
    fn fig06_covers_all_strategies() {
        let fig = fig06(&tiny());
        assert_eq!(fig.series.len(), 4);
    }

    #[test]
    fn fig10_and_12_have_dynamic_last() {
        let mut opts = tiny();
        opts.file_mb = Some(0.25);
        let f10 = fig10(&opts);
        assert!(f10.series.last().unwrap().label.contains("dyn"));
        let f12 = fig12(&opts);
        assert!(f12.series.last().unwrap().label.contains("dyn"));
        assert_eq!(
            f12.series[0].points.len(),
            7,
            "cascade topology has 7 receivers"
        );
    }

    #[test]
    fn fig13_produces_interarrival_series_and_overage_note() {
        let fig = fig13(&tiny());
        assert_eq!(fig.series.len(), 1);
        assert!(!fig.series[0].points.is_empty());
        assert!(fig.notes[0].contains("overage"));
    }

    #[test]
    fn fig15_orders_shotgun_before_rsync() {
        // Shotgun's advantage needs a non-trivial update size and client count
        // (on a tiny 1 MB push the per-session rsync overhead is negligible).
        let mut opts = tiny();
        opts.nodes = Some(16);
        opts.file_mb = Some(4.0);
        let fig = fig15(&opts);
        assert_eq!(fig.series.len(), 6);
        let shotgun = fig.series[1].max_x();
        let rsync2 = fig.series[2].max_x();
        assert!(
            shotgun < rsync2,
            "Shotgun ({shotgun}) should beat 2-way rsync ({rsync2})"
        );
    }
}
