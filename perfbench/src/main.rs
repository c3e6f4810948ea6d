//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one seeded workload (see `workload.rs`) through the
//! public APIs of the simulator, datapath, core, analysis, verify, explore,
//! gen and serve crates. With `--trace 0` it times the end-to-end paths a
//! user waits on; with `--trace 1` it times the calls into each crate from
//! outside and reports per-layer costs. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod e2e;
mod host;
mod layers;
mod spans;
mod util;
mod workload;

use std::process::ExitCode;

use crate::e2e::Metric;
use crate::host::Host;
use crate::util::{peak_rss_mib, Tally};
use crate::workload::{Workload, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`; expected one of {NAMES:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must lie in (0, 600], not {seconds}"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.9e}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{} seed {} on {threads} hardware threads", args.workload, args.seed);
    let mut tally = Tally::default();
    let mut workload = Workload::generate(&args.workload, args.seed).expect("validated name");
    workload.select();
    e2e::headline(args.seed, &mut tally);
    let metrics: Vec<Metric> = if args.trace {
        layers::run(&workload, args.seed, args.seconds, &mut tally)
    } else {
        let mut host = Host::new();
        let mut metrics = e2e::run(&workload, args.seed, args.seconds, &mut host, &mut tally);
        println!("host slowdown over the run: {:.3}", host.run_slowdown());
        metrics.push(Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"));
        metrics
    };
    for metric in &metrics {
        println!("{:<40} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    let failure_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("failure_rate {failure_rate} ({} of {} operations)", tally.failed, tally.attempted);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
