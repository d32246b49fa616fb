//! Tests of the benchmark's own helpers: the percentile rules, the hook
//! wrapper's transparency, the service arrival plan, and the metric list
//! against `BENCHMARK.json`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use bullet_prime::Config;
use desim::{RngFactory, SimDuration};
use dissem_codec::FileSpec;
use netsim::{topology, NodeId};
use perfbench::closed::{rewrap, Closed, Shape};
use perfbench::hooks::{HookTally, Layer, SharedTally};
use perfbench::measure::{self, Outcome, Workload};
use perfbench::service::{arrival_plan, Service};
use perfbench::stats::{highest_percentile_with_tail, median, percentile, MIN_TAIL};

#[test]
fn p90_needs_a_hundred_samples_for_ten_beyond_it() {
    assert_eq!(highest_percentile_with_tail(100, MIN_TAIL), Some(90));
    assert_eq!(highest_percentile_with_tail(99, MIN_TAIL), Some(89));
    assert_eq!(highest_percentile_with_tail(1000, MIN_TAIL), Some(99));
    assert_eq!(highest_percentile_with_tail(200, MIN_TAIL), Some(95));
    assert_eq!(highest_percentile_with_tail(11, MIN_TAIL), Some(9));
    assert_eq!(highest_percentile_with_tail(10, MIN_TAIL), None);
    assert_eq!(highest_percentile_with_tail(0, MIN_TAIL), None);
    assert_eq!(highest_percentile_with_tail(5, 0), Some(99));
}

#[test]
fn the_returned_percentile_really_leaves_the_tail() {
    for n in 1..400usize {
        let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
        if let Some(p) = highest_percentile_with_tail(n, MIN_TAIL) {
            let cut = percentile(&samples, f64::from(p));
            let beyond = samples.iter().filter(|&&s| s > cut).count();
            assert!(beyond >= MIN_TAIL, "n={n} p={p}: {beyond} beyond");
            if p < 99 {
                let next = percentile(&samples, f64::from(p + 1));
                let beyond = samples.iter().filter(|&&s| s > next).count();
                assert!(beyond < MIN_TAIL, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }
}

#[test]
fn nearest_rank_percentiles_and_median() {
    let v = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(percentile(&v, 50.0), 3.0);
    assert_eq!(percentile(&v, 90.0), 5.0);
    assert_eq!(percentile(&v, 20.0), 1.0);
    assert_eq!(median(&v), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn too_few_receivers_fail_the_tail_check_loudly() {
    let short = Outcome {
        done_s: vec![1.0; 99],
        latency_s: vec![1.0; 99],
        ..Outcome::default()
    };
    assert!(short.check_tail().is_err());
    let enough = Outcome {
        done_s: vec![1.0; 100],
        latency_s: vec![1.0; 100],
        ..Outcome::default()
    };
    assert!(enough.check_tail().is_ok());
}

#[test]
fn wrapped_run_matches_the_bare_run_byte_for_byte() {
    let rng = RngFactory::new(7);
    let cfg = Config::new(FileSpec::new(512 * 1024, 16 * 1024));
    let limit = SimDuration::from_secs(3600);
    let schedule = bullet_bench::systems::paper_dynamic_schedule(10, 3600.0, &rng);
    let mut bare = bullet_prime::build_runner(topology::modelnet_mesh(10, 0.03, &rng), &cfg, &rng);
    for (at, batch) in &schedule {
        bare.schedule_link_change(*at, batch.clone());
    }
    let bare = bare.run(limit);

    let tally: SharedTally = Rc::new(RefCell::new(HookTally::default()));
    let built = bullet_prime::build_runner(topology::modelnet_mesh(10, 0.03, &rng), &cfg, &rng);
    let mut wrapped = rewrap(built, &rng, &tally);
    wrapped.exempt_from_completion(NodeId(0));
    for (at, batch) in &schedule {
        wrapped.schedule_link_change(*at, batch.clone());
    }
    wrapped.enable_profiling(10.0);
    let traced = wrapped.run(limit);
    assert_eq!(traced.canonical(), bare.canonical());

    let t = tally.borrow();
    let delivered = bare.metrics.counter("blocks_delivered").unwrap();
    assert_eq!(t.calls[Layer::BlockReceived as usize], delivered);
    for layer in [
        Layer::BlockSent,
        Layer::Timer,
        Layer::Peering,
        Layer::Request,
        Layer::Ransub,
    ] {
        assert!(t.calls[layer as usize] > 0, "{} never called", layer.name());
    }
    let control: u64 = [
        Layer::Peering,
        Layer::Diff,
        Layer::Request,
        Layer::Ransub,
        Layer::Tree,
    ]
    .iter()
    .map(|&l| t.calls[l as usize])
    .sum();
    // The counter counts sends; a few may still be in flight at the end.
    let sent = bare.metrics.counter("control_messages").unwrap();
    assert!(
        control > 0 && control <= sent,
        "{control} handled, {sent} sent"
    );
}

#[test]
fn the_arrival_plan_puts_one_arrival_in_each_period() {
    let rng = RngFactory::new(11);
    let plan = arrival_plan(64.0, 900.0, &rng);
    assert_eq!(plan.len(), 57);
    for (i, t) in plan.iter().enumerate() {
        let t = t.as_secs_f64();
        assert!(
            t >= i as f64 * 15.625 && t < (i + 1) as f64 * 15.625,
            "arrival {i} at {t}"
        );
    }
    assert_eq!(plan, arrival_plan(64.0, 900.0, &RngFactory::new(11)));
    assert_ne!(plan, arrival_plan(64.0, 900.0, &RngFactory::new(12)));
}

#[test]
fn service_pools_drain_and_balance_their_books() {
    let tiny = Service {
        pool: 16,
        load_per_1000s: 64.0,
        horizon_secs: 1_200.0,
        arrivals_end_secs: 900.0,
        file_hi: 256 * 1024,
        instances: 2,
    };
    let out = tiny.run(tiny.setup(5)).expect("checks pass");
    assert_eq!(out.attempted, 114);
    assert_eq!(
        out.unfinished, 0,
        "the drain window lets every swarm finish"
    );
    assert!(out.latency_s.iter().zip(&out.done_s).all(|(l, d)| l >= d));
}

/// `(section, name, unit)` of every metric line in `BENCHMARK.json`.
fn declared_metrics() -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines() {
        for s in ["end_to_end", "per_layer", "workloads"] {
            if line.contains(&format!("\"{s}\"")) {
                section = s.to_string();
            }
        }
        if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
            out.push((section.clone(), name, unit));
        }
    }
    out
}

fn tiny() -> Closed {
    Closed {
        shape: Shape::DynamicMesh,
        nodes: 6,
        file: FileSpec::new(256 * 1024, 16 * 1024),
        instances: 20,
        groups: 1,
    }
}

#[test]
fn output_lists_every_declared_metric_with_its_unit() {
    let declared = declared_metrics();
    let e2e: Vec<_> = declared.iter().filter(|d| d.0 == "end_to_end").collect();
    let layers: Vec<_> = declared.iter().filter(|d| d.0 == "per_layer").collect();
    assert_eq!(e2e.len(), 9);
    assert!(!layers.is_empty() && layers.len() <= 128);

    let timed = measure::measure(&tiny(), 3, Duration::ZERO);
    assert!(timed.correct);
    let traced = measure::trace(&tiny(), 3);
    assert!(traced.correct);
    for (result, expected) in [(&timed, &e2e), (&traced, &layers)] {
        let got: Vec<(&str, &str)> = result
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        let want: Vec<(&str, &str)> = expected
            .iter()
            .map(|d| (d.1.as_str(), d.2.as_str()))
            .collect();
        assert_eq!(got, want);
        let json = result.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        for (name, unit) in want {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
    }
    assert!(timed.metrics.iter().all(|m| m.value.is_finite()));
    let value = |name: &str| timed.metrics.iter().find(|m| m.name == name).unwrap().value;
    assert!(value("sim_done_p90_s") >= value("sim_done_p50_s"));
    assert_eq!(value("incomplete_frac"), 1.0 / 101.0);
}
