//! The `lab trace` subcommand: a scenario run exactly as `lab run` runs it,
//! with the full observability stack on — structured trace sink, stats probe
//! and the virtual-time profiler — followed by the analyzer pass.
//!
//! ```text
//! lab trace <scenario> [--json PATH] [--ring N] [--kind K] [--tail N] [figure options]
//! ```
//!
//! The scenario runs under [`bullet_bench::tap::capture`], so **every run**
//! its figure makes is traced, in build order: fig05's four systems, fig12's
//! four outstanding-request windows, fig16's churn-free calibration run and
//! its three crash waves. Each run collects its [`TraceRecord`]s in a ring of
//! its own (`--ring` caps each run: on overflow the *oldest* records drop,
//! exactly like [`netsim::RingSink`]). For each run the analyzer prints the
//! receivers' completion times, the per-kind summary and the profiler's
//! wall-clock attribution, and then **cross-checks the trace against the
//! probe**: [`replay_goodput`] rebuilds the per-node goodput series from
//! nothing but `block_received` and `probe_tick` records and must reproduce
//! the live [`StatsProbe`](netsim::StatsProbe) series bit-for-bit. A complete
//! trace that cannot replay the probe means the instrumentation lies, so the
//! mismatch is a hard error — unless the run's ring overflowed or it saw
//! node-lifecycle records (churn resets cumulative counters the replay
//! cannot see), where it degrades to a note. `--json` writes every run's
//! stream as JSONL, each line tagged with its `run` index.
//!
//! Open-system service scenarios (`fig21`, `fig22`) and the Shotgun tool
//! (`fig15`) are rejected.

use bullet_bench::systems::collect_times;
use bullet_bench::tap::{capture, CapturedRun};
use bullet_bench::{experiments, CommonOpts};
use desim::SimDuration;
use netsim::{replay_goodput, summarize, TimeSeries, TraceRecord};

use crate::registry::Registry;
use crate::scenario::{Scenario, SystemSet};

const USAGE: &str = "usage: lab trace <scenario> [--json PATH] [--ring N] [--kind K] [--tail N] \
[figure options]";

/// Every record kind the trace vocabulary emits (`--kind` is validated
/// against this list so a typo is a usage error, not an empty filter).
const KINDS: &str = "msg timer block_sent block_received conn_schedule conn_cancel solver \
node_join node_leave node_crash node_retire link_change cross_change probe_tick snapshot_resume";

/// Default ring capacity: comfortably above any reduced-scale run's record
/// count, bounded so a `--full` trace cannot exhaust memory.
const DEFAULT_RING: usize = 1 << 22;

/// Flags peeled off before [`CommonOpts`] sees the rest.
#[derive(Debug)]
struct TraceArgs {
    json: Option<String>,
    ring: usize,
    kind: Option<String>,
    tail: usize,
    rest: Vec<String>,
}

fn parse_trace_args(args: Vec<String>) -> Result<TraceArgs, String> {
    let mut out = TraceArgs {
        json: None,
        ring: DEFAULT_RING,
        kind: None,
        tail: 0,
        rest: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value_for = |name: &str| -> Result<String, String> {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--json" => out.json = Some(value_for("--json")?),
            "--ring" => {
                out.ring = value_for("--ring")?
                    .parse()
                    .map_err(|_| format!("bad --ring\n{USAGE}"))?;
                if out.ring == 0 {
                    return Err(format!("--ring must be positive\n{USAGE}"));
                }
            }
            "--kind" => {
                let kind = value_for("--kind")?;
                if !KINDS.split(' ').any(|k| k == kind) {
                    return Err(format!(
                        "unknown record kind '{kind}'; one of: {}\n{USAGE}",
                        KINDS.replace(' ', ", ")
                    ));
                }
                out.kind = Some(kind);
            }
            "--tail" => {
                out.tail = value_for("--tail")?
                    .parse()
                    .map_err(|_| format!("bad --tail\n{USAGE}"))?;
            }
            other => out.rest.push(other.to_string()),
        }
    }
    Ok(out)
}

/// Runs `scenario` exactly as `lab run` does, with every run it makes
/// traced, probed and profiled (up to `ring` records kept per run). The
/// runs come back in the order the figure made them.
///
/// # Errors
///
/// Returns an error for the Shotgun tool (`fig15`), which has no emulator
/// run, and for the open-system service scenarios, which `lab serve` runs.
pub fn traced_runs(
    scenario: &Scenario,
    opts: &CommonOpts,
    ring: usize,
) -> Result<Vec<CapturedRun>, String> {
    if scenario.system == SystemSet::Shotgun {
        return Err(format!(
            "scenario '{}' runs the Shotgun tool, which has no Bullet' runner to trace",
            scenario.name
        ));
    }
    if experiments::service_points(scenario.name).is_some() {
        return Err(format!(
            "scenario '{}' is an open-system service run; use `lab serve {}` \
             (its ServiceReport carries the steady-state series a trace would)",
            scenario.name, scenario.name
        ));
    }
    let tick = SimDuration::from_secs_f64(opts.tick.unwrap_or(2.0));
    let (_, runs) = capture(ring, tick, || scenario.run(opts));
    Ok(runs)
}

/// Whether a mismatching replay of `run` is an error: its ring kept the
/// whole stream and no node joined, left, crashed or retired mid-run.
pub fn replay_is_strict(run: &CapturedRun) -> bool {
    run.dropped == 0 && lifecycle_records(run) == 0
}

fn lifecycle_records(run: &CapturedRun) -> usize {
    let lifecycle = ["node_join", "node_leave", "node_crash", "node_retire"];
    run.records
        .iter()
        .filter(|r| lifecycle.contains(&r.ev.kind()))
        .count()
}

/// One JSONL line: the record's flat object with the run index in front.
fn jsonl_line(run: usize, rec: &TraceRecord) -> String {
    let json = serde_json::to_string(rec).expect("trace records always serialize");
    format!("{{\"run\":{run},{}", &json[1..])
}

/// Compares the trace-replayed goodput series against the live probe's.
/// Returns a human-readable success summary, or the first mismatch.
pub fn check_replay(
    records: &[TraceRecord],
    series: &TimeSeries,
    nodes: usize,
) -> Result<String, String> {
    let replayed = replay_goodput(records, nodes)?;
    if replayed.len() != series.samples.len() {
        return Err(format!(
            "replay produced {} samples, the probe recorded {}",
            replayed.len(),
            series.samples.len()
        ));
    }
    for (r, s) in replayed.iter().zip(&series.samples) {
        if (r.time_secs - s.time_secs).abs() > 1e-9 {
            return Err(format!(
                "sample instants diverge: replayed t={:.6}s vs probe t={:.6}s",
                r.time_secs, s.time_secs
            ));
        }
        for (i, (rg, sn)) in r.goodput_bps.iter().zip(&s.nodes).enumerate() {
            // Both sides difference the same u64 counters over the same dt,
            // so the match is exact up to float noise.
            let tol = 1e-6 * sn.goodput_bps.abs().max(1.0);
            if (rg - sn.goodput_bps).abs() > tol {
                return Err(format!(
                    "t={:.1}s node {i}: replayed {:.1} bps vs probe {:.1} bps",
                    r.time_secs, rg, sn.goodput_bps
                ));
            }
        }
    }
    Ok(format!(
        "{} probe samples x {nodes} nodes reproduced from the trace",
        replayed.len()
    ))
}

/// The `lab trace` subcommand body.
pub fn trace(registry: &Registry, args: Vec<String>) -> Result<(), String> {
    let (name, rest) = crate::cli::take_scenario(args)?;
    let scenario = crate::cli::resolve(registry, &name)?;
    let targs = parse_trace_args(rest)?;
    let opts = CommonOpts::parse(targs.rest.clone())?;

    let runs = traced_runs(scenario, &opts, targs.ring)?;
    let keep = |rec: &&TraceRecord| match &targs.kind {
        Some(kind) => rec.ev.kind() == kind,
        None => true,
    };

    if let Some(path) = &targs.json {
        let mut out = String::new();
        let mut lines = 0u64;
        for (i, run) in runs.iter().enumerate() {
            for rec in run.records.iter().filter(keep) {
                out.push_str(&jsonl_line(i, rec));
                out.push('\n');
                lines += 1;
            }
        }
        std::fs::write(path, out).map_err(|e| format!("failed to write {path}: {e}"))?;
        eprintln!("wrote {path} ({lines} lines)");
    }

    println!(
        "trace {name}: {} run(s), ring capacity {} records each",
        runs.len(),
        targs.ring
    );
    for (i, run) in runs.iter().enumerate() {
        println!(
            "run {i}: {} nodes, {} events, virtual end {:.1}s ({:?})",
            run.nodes,
            run.report.events,
            run.report.end_time.as_secs_f64(),
            run.report.reason,
        );
        let receivers = collect_times(&run.report);
        let times = receivers.cdf("receivers");
        println!(
            "  receivers: p10 {:.1}s, median {:.1}s, p90 {:.1}s, slowest {:.1}s, {} unfinished",
            times.quantile(0.1),
            times.quantile(0.5),
            times.quantile(0.9),
            times.max_x(),
            receivers.unfinished,
        );
        println!(
            "  records: {} emitted, {} dropped, {} retained",
            run.recorded,
            run.dropped,
            run.records.len()
        );
        let summary = summarize(&run.records);
        for (kind, count) in &summary.by_kind {
            println!("    {kind:<16} {count:>10}");
        }
        if let (Some(first), Some(last)) = (summary.first_t, summary.last_t) {
            println!("  stream extent: {first:.3}s .. {last:.3}s");
        }

        if targs.tail > 0 {
            let shown: Vec<&TraceRecord> = run.records.iter().filter(keep).collect();
            let skip = shown.len().saturating_sub(targs.tail);
            for rec in &shown[skip..] {
                println!("  {}", jsonl_line(i, rec));
            }
        }

        let series = run
            .report
            .timeseries
            .as_ref()
            .expect("the tap installs the stats probe");
        match check_replay(&run.records, series, run.nodes) {
            Ok(msg) => println!("  replay check: OK — {msg}"),
            Err(msg) if replay_is_strict(run) => {
                return Err(format!("run {i}: replay check FAILED: {msg}"))
            }
            Err(msg) => println!(
                "  replay check: skipped ({msg}; {} records dropped, {} node-lifecycle records)",
                run.dropped,
                lifecycle_records(run)
            ),
        }

        if let Some(profile) = &run.profile {
            println!("  profiler (wall-clock attribution):");
            for line in profile.lines() {
                println!("    {line}");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::TraceEvent;

    #[test]
    fn trace_args_split_trace_flags_from_figure_flags() {
        let args = vec![
            "--json".to_string(),
            "out.jsonl".to_string(),
            "--ring".to_string(),
            "128".to_string(),
            "--kind".to_string(),
            "block_received".to_string(),
            "--tail".to_string(),
            "5".to_string(),
            "--nodes".to_string(),
            "8".to_string(),
        ];
        let parsed = parse_trace_args(args).unwrap();
        assert_eq!(parsed.json.as_deref(), Some("out.jsonl"));
        assert_eq!(parsed.ring, 128);
        assert_eq!(parsed.kind.as_deref(), Some("block_received"));
        assert_eq!(parsed.tail, 5);
        assert_eq!(parsed.rest, vec!["--nodes", "8"]);
        let opts = CommonOpts::parse(parsed.rest).unwrap();
        assert_eq!(opts.nodes, Some(8));
    }

    #[test]
    fn bogus_kind_and_zero_ring_are_usage_errors() {
        let err = parse_trace_args(vec!["--kind".to_string(), "bogus".to_string()]).unwrap_err();
        assert!(err.contains("unknown record kind"));
        assert!(err.contains("block_received"), "lists the vocabulary");
        let err = parse_trace_args(vec!["--ring".to_string(), "0".to_string()]).unwrap_err();
        assert!(err.contains("positive"));
    }

    #[test]
    fn shotgun_scenarios_are_not_traceable() {
        let registry = Registry::standard();
        let fig15 = registry.get("fig15").expect("registered");
        let err = traced_runs(fig15, &CommonOpts::default(), 16).unwrap_err();
        assert!(err.contains("Shotgun"), "{err}");
    }

    #[test]
    fn open_system_scenarios_point_at_lab_serve() {
        let registry = Registry::standard();
        for name in ["fig21", "fig22"] {
            let sc = registry.get(name).expect("registered");
            let err = traced_runs(sc, &CommonOpts::default(), 16).unwrap_err();
            assert!(err.contains("lab serve"), "{name}: {err}");
        }
    }

    #[test]
    fn traced_fig05_replays_the_probe_series_from_the_ring() {
        // The acceptance check at smoke scale: fig05 traces its four
        // systems, and each run's trace stream alone reproduces its
        // StatsProbe goodput series.
        let registry = Registry::standard();
        let fig05 = registry.get("fig05").expect("registered");
        let opts = CommonOpts {
            nodes: Some(6),
            file_mb: Some(0.125),
            time_limit: 1800.0,
            tick: Some(1.0),
            ..CommonOpts::default()
        };
        let runs = traced_runs(fig05, &opts, 1 << 16).unwrap();
        assert_eq!(runs.len(), 4, "one run per system");
        for run in &runs {
            assert!(replay_is_strict(run), "smoke runs fit the ring, no churn");
            assert_eq!(run.recorded as usize, run.records.len());
            assert!(run.records.len() > 100, "a real run emits many records");
            let series = run.report.timeseries.as_ref().expect("probe installed");
            let msg = check_replay(&run.records, series, run.nodes).expect("replay must match");
            assert!(msg.contains("6 nodes"), "{msg}");
            // The profiler saw the run too.
            let profile = run.profile.as_ref().expect("profiling was enabled");
            assert!(profile.total_nanos() > 0);
        }
    }

    #[test]
    fn jsonl_lines_lead_with_the_run_index() {
        let rec = TraceRecord {
            t: 1.5,
            seq: 7,
            ev: TraceEvent::ProbeTick,
        };
        assert_eq!(
            jsonl_line(3, &rec),
            r#"{"run":3,"t":1.5,"seq":7,"kind":"probe_tick"}"#
        );
    }
}
