//! Load benchmark for the `elastic-serve` design service: latency and
//! throughput of the verify pipeline through the full service stack
//! (sharded queue, worker pool, retry/backoff, content-addressed cache).
//!
//! Three measurements back `BENCH_serve.json`:
//!
//! 1. **Cold vs cached latency.** A pool of distinct designs is submitted
//!    twice, sequentially, with a wait after each submission. The first
//!    pass pays the full pipeline; the second is served from the
//!    content-addressed cache. Reported: p50/p99 per pass, and the speedup,
//!    which is asserted to stay at or above its floor.
//! 2. **Batch throughput, fault-free.** A duplicate-heavy batch is
//!    submitted at once and drained; reported as jobs/second together with
//!    the cache hit-rate and the degraded-completion count (the batch is
//!    sized to cross the service's degrade watermark, so the soft
//!    load-shedding tier shows up in the numbers).
//! 3. **Batch throughput under injected faults.** The same batch with the
//!    self-test injectors armed (worker panics, wedged attempts, stall
//!    storms): every job still completes — the reported overhead is the
//!    price of the retry/backoff/requeue machinery actually firing.
//!
//! Run with `cargo run --release --example serve_load` from the repo root;
//! it rewrites `BENCH_serve.json`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use elastic_serve::{JobSpec, PipelineKind, SelfTest, Service, ServiceConfig, ServiceStats};
use elastic_verify::exploration::ExplorationOptions;

const LATENCY_DESIGNS: u64 = 24;
/// Floor of the cold over cached p50 latency: half the lowest of five runs
/// on a 2-vCPU container (28x to 89x; the cached p50 is 57 to 195 us, and a
/// cold job spends most of its time in the exploration sweep).
const P50_SPEEDUP_FLOOR: f64 = 14.0;
const BATCH_JOBS: u64 = 200;
const BATCH_SEED_POOL: u64 = 40;

fn bench_config(self_test: SelfTest) -> ServiceConfig {
    ServiceConfig {
        workers: 4,
        queue_capacity: BATCH_JOBS as usize,
        degrade_depth: BATCH_JOBS as usize / 3,
        case_deadline: Duration::from_secs(2),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        verify: ExplorationOptions {
            max_runs: 12,
            random_scheduler_runs: 2,
            cycles_per_run: 32,
            ..ExplorationOptions::default()
        },
        degraded_verify: ExplorationOptions {
            max_runs: 4,
            random_scheduler_runs: 1,
            cycles_per_run: 32,
            ..ExplorationOptions::default()
        },
        sweep_scenarios: 2,
        sweep_cycles: 48,
        journal_path: None,
        self_test,
        ..ServiceConfig::default()
    }
}

fn percentile(sorted: &[Duration], fraction: f64) -> f64 {
    let index = ((sorted.len() - 1) as f64 * fraction).round() as usize;
    sorted[index].as_secs_f64() * 1e6
}

/// Sequential submit+wait over the design pool; returns sorted latencies.
fn latency_pass(service: &Service, label: &str) -> Vec<Duration> {
    let mut latencies = Vec::new();
    for i in 0..LATENCY_DESIGNS {
        let spec = JobSpec::seeded(0x1a7e_0000 + i * 3, "small", PipelineKind::Verify);
        let start = Instant::now();
        let job = service.submit(spec);
        let outcome = service
            .wait(job, Duration::from_secs(60))
            .unwrap_or_else(|| panic!("{label} pass: job {job} timed out"));
        assert!(outcome.is_completed(), "{label} pass: job {job} must complete: {outcome:?}");
        latencies.push(start.elapsed());
    }
    latencies.sort_unstable();
    latencies
}

/// Submits the duplicate-heavy batch, drains it, and returns
/// (elapsed, stats).
fn batch_pass(service: &Service) -> (Duration, ServiceStats) {
    let start = Instant::now();
    for i in 0..BATCH_JOBS {
        let seed = 0xb47c_0000 + (i % BATCH_SEED_POOL) * 5;
        service.submit(JobSpec::seeded(seed, "small", PipelineKind::Verify));
    }
    assert!(service.drain(Duration::from_secs(600)), "batch must drain");
    (start.elapsed(), service.stats())
}

fn json_batch(out: &mut String, key: &str, elapsed: Duration, stats: &ServiceStats) {
    let secs = elapsed.as_secs_f64();
    let _ = writeln!(
        out,
        "  \"{key}\": {{ \"jobs\": {}, \"seconds\": {secs:.3}, \"jobs_per_sec\": {:.1}, \
         \"completed\": {}, \"cache_hits\": {}, \"degraded_completed\": {}, \"retries\": {}, \
         \"permanent_failures\": {}, \"shed\": {} }},",
        stats.submitted,
        stats.submitted as f64 / secs,
        stats.completed,
        stats.cache_hits,
        stats.degraded_completed,
        stats.retries,
        stats.permanent_failures,
        stats.shed,
    );
}

fn main() {
    // 1. Cold vs cached latency on a fault-free service.
    let service = Service::start(bench_config(SelfTest::default())).expect("start service");
    let cold = latency_pass(&service, "cold");
    let cached = latency_pass(&service, "cached");
    let hits = service.stats().cache_hits;
    assert!(
        hits >= LATENCY_DESIGNS,
        "second latency pass must be served from cache (hits: {hits})"
    );
    drop(service);
    let p50_speedup = percentile(&cold, 0.5) / percentile(&cached, 0.5).max(f64::EPSILON);
    println!(
        "latency: cold p50 {:.0}us p99 {:.0}us | cached p50 {:.0}us p99 {:.0}us \
         ({p50_speedup:.1}x)",
        percentile(&cold, 0.5),
        percentile(&cold, 0.99),
        percentile(&cached, 0.5),
        percentile(&cached, 0.99),
    );
    assert!(
        p50_speedup >= P50_SPEEDUP_FLOOR,
        "cold/cached p50 latency is {p50_speedup:.1}x, below its floor {P50_SPEEDUP_FLOOR}x"
    );

    // 2. Fault-free batch throughput.
    let service = Service::start(bench_config(SelfTest::default())).expect("start service");
    let (clean_elapsed, clean_stats) = batch_pass(&service);
    drop(service);
    println!(
        "batch fault-free: {} jobs in {:.2}s ({:.1} jobs/s, {} cache hits)",
        clean_stats.submitted,
        clean_elapsed.as_secs_f64(),
        clean_stats.submitted as f64 / clean_elapsed.as_secs_f64(),
        clean_stats.cache_hits,
    );

    // 3. The same batch with the fault injectors armed.
    let storm = SelfTest { panic_period: 13, wedge_period: 31, storm_period: 11 };
    let service = Service::start(bench_config(storm)).expect("start service");
    let (storm_elapsed, storm_stats) = batch_pass(&service);
    assert_eq!(
        storm_stats.completed + storm_stats.permanent_failures,
        BATCH_JOBS,
        "every job must reach a terminal outcome under injected faults"
    );
    drop(service);
    println!(
        "batch under faults: {} jobs in {:.2}s ({} retries absorbed, {} completed)",
        storm_stats.submitted,
        storm_elapsed.as_secs_f64(),
        storm_stats.retries,
        storm_stats.completed,
    );

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"serve\",\n");
    out.push_str(
        "  \"description\": \"elastic-serve design-service load benchmark, measured with \
         `cargo run --release --example serve_load`. Latency is sequential submit+wait over 24 \
         distinct small-preset designs through the verify pipeline (liveness + bounded \
         exploration + back-pressure sweep): the cold pass pays the full pipeline, the cached \
         pass is served from the integrity-checked content-addressed cache keyed by the \
         canonical structural hash. Throughput is a 200-job duplicate-heavy batch (40-seed \
         pool) on 4 workers, fault-free versus with the self-test injectors armed (worker \
         panics every 13th job, wedged attempts every 31st, stall-storms every 11th); under \
         faults every job still reaches a terminal outcome through the retry/backoff/requeue \
         machinery, and the throughput gap is that machinery's price. The batch is sized past \
         the degrade watermark, so part of each batch completes in the flagged \
         reduced-coverage tier.\",\n",
    );
    out.push_str(
        "  \"hardware_note\": \"Container CPU; absolute latency and jobs/sec vary with the \
         host, the cold/cached and clean/faulted ratios are the signal.\",\n",
    );
    let _ = writeln!(
        out,
        "  \"latency_microseconds\": {{ \"designs\": {LATENCY_DESIGNS}, \
         \"cold_p50\": {:.0}, \"cold_p99\": {:.0}, \"cached_p50\": {:.0}, \
         \"cached_p99\": {:.0}, \"p50_speedup\": {p50_speedup:.1} }},",
        percentile(&cold, 0.5),
        percentile(&cold, 0.99),
        percentile(&cached, 0.5),
        percentile(&cached, 0.99),
    );
    json_batch(&mut out, "batch_fault_free", clean_elapsed, &clean_stats);
    json_batch(&mut out, "batch_injected_faults", storm_elapsed, &storm_stats);
    let _ = writeln!(
        out,
        "  \"fault_overhead_ratio\": {:.2}\n}}",
        storm_elapsed.as_secs_f64() / clean_elapsed.as_secs_f64()
    );
    std::fs::write("BENCH_serve.json", &out).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json");
}
