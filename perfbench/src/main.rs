//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when a
//! check failed, 2 on a usage error.

use std::time::Duration;

use bullet_bench::alloc_track::CountingAlloc;

// The live-heap high-water mark behind `peak_heap_mb` and the allocation
// count behind `netsim.runner.allocs_per_event`.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <dynamics|swarm|service|paper_sweep> \
[--seed N] [--seconds S] [--trace 0|1]";

fn main() {
    let mut workload = None;
    let mut seed: u64 = 20050410;
    let mut seconds: u64 = 10;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next();
        let ok = match (flag.as_str(), value.as_deref()) {
            ("--workload", Some(v)) => {
                workload = Some(v.to_string());
                true
            }
            ("--seed", Some(v)) => v.parse().map(|s| seed = s).is_ok(),
            ("--seconds", Some(v)) => v.parse().map(|s| seconds = s).is_ok(),
            ("--trace", Some("0")) => true,
            ("--trace", Some("1")) => {
                traced = true;
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument {flag} {}\n{USAGE}", value.unwrap_or_default());
            std::process::exit(2);
        }
    }
    let Some(name) = workload else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let Some(result) = perfbench::run_workload(&name, seed, Duration::from_secs(seconds), traced)
    else {
        eprintln!("unknown workload {name}\n{USAGE}");
        std::process::exit(2);
    };
    println!("{}", result.to_json());
    if !result.correct {
        std::process::exit(1);
    }
}
