//! Workspace-level determinism regression: the whole stack — topology
//! generation, the discrete-event engine, every protocol implementation and
//! the harness — must be a pure function of the `RngFactory` seed.
//!
//! Each check runs the same experiment twice from identical seeds and
//! requires the *byte-identical* debug rendering of the result, which covers
//! every field (per-node completion times at full `f64` precision, event
//! counts, end times and stop reasons). A change that breaks this is almost
//! always an accidental source of nondeterminism (iteration over an unordered
//! map, RNG stream shared across components, time-order tie broken by
//! allocation order, ...) and would silently invalidate every figure.

use bullet_repro::baselines::{bullet_orig, splitstream, BitTorrentConfig, BitTorrentNode};
use bullet_repro::bullet_bench::systems::paper_dynamic_schedule;
use bullet_repro::bullet_bench::{run_system, SystemKind};
use bullet_repro::bullet_prime::{
    build_runner, build_service_runner, Config, RequestStrategy, ServiceSwarms,
};
use bullet_repro::desim::{RngFactory, SimDuration, SimTime};
use bullet_repro::dissem_codec::file::fnv1a;
use bullet_repro::dissem_codec::FileSpec;
use bullet_repro::netsim::{
    mbps, run_service, topology, ArrivalGen, ChangeSchedule, Network, NodeEvent, NodeId, Protocol,
    RunReport, Runner, ServiceConfig, ServiceReport,
};

const NODES: usize = 10;
const SEED: u64 = 20050410;

fn file() -> FileSpec {
    FileSpec::new(256 * 1024, 16 * 1024)
}

fn bullet_prime_report(seed: u64) -> RunReport {
    let rng = RngFactory::new(seed);
    let topo = topology::modelnet_mesh(NODES, 0.01, &rng);
    let cfg = Config::new(file());
    let mut runner = build_runner(topo, &cfg, &rng);
    runner.run(SimDuration::from_secs(3_600))
}

#[test]
fn periodic_link_table_rebuild_does_not_change_the_run() {
    // The drift-guard hook (Runner::set_table_rebuild_interval) recomputes
    // the incrementally maintained per-link usage/ceiling sums exactly.
    // Rebuilding after *every* event must reproduce the default run byte for
    // byte: at experiment scale the incremental sums have not drifted enough
    // to flip any solver or fast-path decision, so the hook is purely
    // prophylactic.
    let run = |interval: u64| {
        let rng = RngFactory::new(SEED);
        let topo = topology::modelnet_mesh(NODES, 0.01, &rng);
        let cfg = Config::new(file());
        let mut runner = build_runner(topo, &cfg, &rng);
        runner.set_table_rebuild_interval(interval);
        format!("{:?}", runner.run(SimDuration::from_secs(3_600)))
    };
    let default = format!("{:?}", bullet_prime_report(SEED));
    assert_eq!(
        run(1),
        default,
        "rebuild-every-event must match the default"
    );
    assert_eq!(run(0), default, "disabled hook must match the default");
}

#[test]
fn bullet_prime_run_reports_are_byte_identical() {
    let a = format!("{:?}", bullet_prime_report(SEED));
    let b = format!("{:?}", bullet_prime_report(SEED));
    assert_eq!(a, b, "same seed must reproduce the RunReport byte for byte");

    let c = format!("{:?}", bullet_prime_report(SEED + 1));
    assert_ne!(a, c, "a different seed should not reproduce the same run");
}

fn service_report(seed: u64) -> ServiceReport {
    // A two-swarm open-system run over a shared core: arrivals, admission,
    // cohort activation, completion and retirement all on the clock.
    let rng = RngFactory::new(seed);
    let topo = topology::shared_core_mesh(16, mbps(20.0), 0.0, &rng);
    let template = Config::new(file());
    let mut runner = build_service_runner(topo, &template, &rng);
    let mut source = ServiceSwarms::new(template, &rng, (4, 6), (128 * 1024, 256 * 1024));
    let cfg = ServiceConfig {
        horizon: SimTime::from_secs_f64(600.0),
        warmup: SimTime::from_secs_f64(60.0),
        tick: SimDuration::from_secs(10),
        segment_slots: 8,
        max_arrivals: 4,
        core: None,
    };
    let gen = ArrivalGen::Trace(vec![SimTime::ZERO, SimTime::from_secs_f64(10.0)]);
    run_service(&mut runner, &cfg, &gen, &mut source, &rng)
}

#[test]
fn open_system_service_runs_are_byte_identical() {
    let a = service_report(SEED);
    let b = service_report(SEED);
    assert_eq!(
        a.canonical(),
        b.canonical(),
        "same seed must reproduce the ServiceReport byte for byte"
    );
    assert_eq!(a.admitted, 2, "both trace arrivals admitted: {a:?}");

    let c = service_report(SEED + 1);
    assert_ne!(
        a.canonical(),
        c.canonical(),
        "a different seed should not reproduce the same service run"
    );
}

#[test]
fn all_four_systems_are_deterministic() {
    for kind in SystemKind::all() {
        let run = |seed: u64| {
            let rng = RngFactory::new(seed);
            let topo = topology::modelnet_mesh(NODES, 0.01, &rng);
            run_system(
                kind,
                topo,
                file(),
                &rng,
                &Vec::new(),
                SimDuration::from_secs(3_600),
            )
        };
        let a = format!("{:?}", run(SEED));
        let b = format!("{:?}", run(SEED));
        assert_eq!(
            a,
            b,
            "{}: same seed must reproduce the run byte for byte",
            kind.label()
        );
    }
}

/// FNV-1a digest of the canonical report of a 16-node, 128-block run: Bullet′
/// under `strategy`, or original Bullet when `strategy` is `None`.
fn strategy_digest(strategy: Option<RequestStrategy>) -> u64 {
    let rng = RngFactory::new(SEED);
    let topo = topology::modelnet_mesh(16, 0.01, &rng);
    let file = FileSpec::new(2 * 1024 * 1024, 16 * 1024);
    let mut runner = match strategy {
        Some(s) => {
            let mut cfg = Config::new(file);
            cfg.request_strategy = s;
            build_runner(topo, &cfg, &rng)
        }
        None => bullet_orig::build_runner(topo, file, &rng),
    };
    fnv1a(
        runner
            .run(SimDuration::from_secs(3_600))
            .canonical()
            .as_bytes(),
    )
}

#[test]
fn request_strategy_runs_match_pinned_digests() {
    // Pinned values: any change to which blocks a receiver requests, in what
    // order, or how many RNG draws the choice consumes moves these digests.
    // Such a change is a behaviour change and needs a deliberate re-baseline.
    let pinned = [
        (
            Some(RequestStrategy::FirstEncountered),
            0x1400_a451_c706_6652,
        ),
        (Some(RequestStrategy::Random), 0x21cd_c9c3_bc80_14da),
        (Some(RequestStrategy::Rarest), 0xe170_b435_7612_252c),
        (Some(RequestStrategy::RarestRandom), 0x7e33_2f80_2c97_c2f6),
        (None, 0xd972_c15e_5993_767c),
    ];
    for (strategy, want) in pinned {
        let got = strategy_digest(strategy);
        assert_eq!(
            got, want,
            "{strategy:?} (None = original Bullet): digest {got:#018x} != pinned {want:#018x}"
        );
    }
}

/// FNV-1a digest of the canonical report of an 18-node BitTorrent or
/// SplitStream run (256 blocks) on a 3%-loss mesh under the §4.1 bandwidth
/// cuts. Node 5 crashes mid-download and node 11 crashes later (BitTorrent
/// has finished it by then; SplitStream has not), so every survivor's
/// `on_peer_failed` runs; the lossy, shrinking links keep BitTorrent's
/// choke, unchoke and `Have` paths busy.
fn baseline_digest(kind: SystemKind) -> u64 {
    const N: usize = 18;
    let rng = RngFactory::new(SEED);
    let topo = topology::modelnet_mesh(N, 0.03, &rng);
    let file = FileSpec::new(4 * 1024 * 1024, 16 * 1024);
    let crashes = [
        (SimTime::from_secs_f64(10.0), NodeEvent::Crash(NodeId(5))),
        (SimTime::from_secs_f64(25.0), NodeEvent::Crash(NodeId(11))),
    ];
    let links = paper_dynamic_schedule(N, 600.0, &rng);
    let report = match kind {
        SystemKind::BitTorrent => {
            let cfg = BitTorrentConfig::new(file);
            let peers = (0..N as u32)
                .map(|i| BitTorrentNode::new(NodeId(i), cfg.clone()))
                .collect();
            let mut runner = Runner::new(Network::new(topo), peers, &rng);
            runner.exempt_from_completion(NodeId(0));
            scheduled_run(&mut runner, &links, &crashes)
        }
        SystemKind::SplitStream => {
            let mut runner = splitstream::build_runner(topo, file, &rng);
            scheduled_run(&mut runner, &links, &crashes)
        }
        other => panic!("no baseline pin for {other:?}"),
    };
    fnv1a(report.canonical().as_bytes())
}

fn scheduled_run<P: Protocol>(
    runner: &mut Runner<P>,
    links: &ChangeSchedule,
    nodes: &[(SimTime, NodeEvent)],
) -> RunReport {
    for (at, batch) in links {
        runner.schedule_link_change(*at, batch.clone());
    }
    for &(at, event) in nodes {
        runner.schedule_node_event(at, event);
    }
    runner.run(SimDuration::from_secs(600))
}

#[test]
fn baseline_runs_match_pinned_digests() {
    // Pinned values: any change to which pieces BitTorrent requests, how
    // many RNG draws its choice consumes, or the order SplitStream pushes
    // blocks to its children moves these digests. Such a change is a
    // behaviour change and needs a deliberate re-baseline.
    let pinned = [
        (SystemKind::BitTorrent, 0x43ff_bc33_779a_5a3a),
        (SystemKind::SplitStream, 0x2c6d_b260_2186_59c6),
    ];
    for (kind, want) in pinned {
        let got = baseline_digest(kind);
        assert_eq!(
            got, want,
            "{kind:?}: digest {got:#018x} != pinned {want:#018x}"
        );
    }
}
