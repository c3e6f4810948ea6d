//! Chaos acceptance campaign for the design service: a large mixed job
//! batch with the self-test fault injectors armed (worker panics, wedged
//! attempts that blow the case deadline, genuine stall-storms), workers
//! killed mid-run, and a cold restart mid-campaign.
//!
//! The acceptance bar, from the service's contract:
//!
//! * every job reaches exactly one allowed outcome — completed (possibly
//!   retried first, possibly from cache, possibly degraded-and-flagged) or
//!   failed-permanent with a reason (liveness refusals ship a wait-graph
//!   diagnosis);
//! * **zero jobs lost** — journal replay shows no pending work after a
//!   drained shutdown, and no rejected (corrupt) lines;
//! * the result cache passes a checksum audit;
//! * a cold restart replays the journal and resumes only the unfinished
//!   jobs, never redoing work the journal saw complete.
//!
//! The batch defaults to 160 jobs and scales with `ELASTIC_SERVE_JOBS`
//! (CI runs 500 in release).

use std::path::PathBuf;
use std::time::Duration;

use elastic_gen::HarnessOptions;
use elastic_serve::{replay, JobOutcome, JobSpec, PipelineKind, SelfTest, Service, ServiceConfig};
use elastic_verify::exploration::ExplorationOptions;

fn chaos_jobs() -> u64 {
    std::env::var("ELASTIC_SERVE_JOBS")
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(160)
        .max(40)
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("elastic-serve-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}.journal", std::process::id()))
}

/// Cheap pipeline settings so the campaign's cost is dominated by the job
/// *count*, not by per-job depth. The case deadline stays comfortably above
/// an honest job's runtime — only the self-test wedge is meant to blow it.
fn chaos_config(jobs: u64, journal: Option<PathBuf>, self_test: SelfTest) -> ServiceConfig {
    ServiceConfig {
        workers: 4,
        queue_shards: 4,
        queue_capacity: jobs as usize,
        degrade_depth: (jobs as usize / 3).max(1),
        retry_budget: 3,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        case_deadline: Duration::from_secs(2),
        harness: HarnessOptions {
            cycles: 96,
            environment_variations: 1,
            structural_environment_variations: 1,
            max_structural_transforms: 2,
            max_commit_depth: 2,
            ..HarnessOptions::default()
        },
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
        journal_path: journal,
        self_test,
        ..ServiceConfig::default()
    }
}

fn chaos_spec(index: u64, seed_pool: u64) -> JobSpec {
    // A seed pool a quarter the size of the batch keeps the duplicate
    // pressure high; every fifth job takes the (heavier) gauntlet pipeline.
    let seed = 0xc4a05 + (index % seed_pool) * 3;
    let pipeline =
        if index.is_multiple_of(5) { PipelineKind::Gauntlet } else { PipelineKind::Verify };
    JobSpec::seeded(seed, "small", pipeline)
}

#[test]
fn chaos_storm_every_job_is_accounted_for() {
    let jobs = chaos_jobs();
    let journal = temp_journal("chaos");
    let _ = std::fs::remove_file(&journal);
    // Fault periods are co-prime so the panic/wedge/storm injections spread
    // across both pipelines and across the duplicate groups.
    let self_test = SelfTest { panic_period: 13, wedge_period: 17, storm_period: 11 };
    let service = Service::start(chaos_config(jobs, Some(journal.clone()), self_test)).unwrap();

    let seed_pool = (jobs / 4).max(8);
    let mut ids = Vec::new();
    for index in 0..jobs {
        ids.push(service.submit(chaos_spec(index, seed_pool)));
        // Three worker kills while the backlog is deep.
        if index == jobs / 4 {
            assert!(service.kill_worker(0));
        } else if index == jobs / 2 {
            assert!(service.kill_worker(1));
        } else if index == jobs * 3 / 4 {
            assert!(service.kill_worker(2));
        }
    }

    assert!(service.drain(Duration::from_secs(600)), "chaos batch must drain");

    let mut completed = 0u64;
    let mut retried_then_succeeded = 0u64;
    let mut cache_hits = 0u64;
    let mut degraded_flagged = 0u64;
    let mut failed_permanent = 0u64;
    for &id in &ids {
        match service.outcome(id).expect("drained service has every outcome") {
            JobOutcome::Completed { report, cache_hit, attempts } => {
                completed += 1;
                if cache_hit {
                    cache_hits += 1;
                }
                if attempts > 1 {
                    retried_then_succeeded += 1;
                }
                if report.degraded {
                    degraded_flagged += 1;
                    assert!(!report.exhaustive, "degraded results must not claim exhaustiveness");
                }
            }
            JobOutcome::FailedPermanent { reason, diagnosis, .. } => {
                failed_permanent += 1;
                assert!(!reason.is_empty(), "permanent failures must carry a reason");
                if reason.contains("liveness refuted") {
                    assert!(
                        diagnosis.is_some(),
                        "liveness refusals must ship a wait-graph diagnosis: {reason}"
                    );
                }
            }
            JobOutcome::Shed => {
                panic!("queue capacity equals the batch size; job {id} must not be shed")
            }
        }
    }
    assert_eq!(completed + failed_permanent, jobs, "exactly one outcome per job");

    let stats = service.stats();
    assert_eq!(stats.submitted, jobs);
    assert_eq!(stats.shed, 0);
    assert!(
        retried_then_succeeded > 0 && stats.retries > 0,
        "the armed fault injectors guarantee retry traffic: {stats:?}"
    );
    assert!(cache_hits > 0, "the duplicate-heavy pool must produce cache hits: {stats:?}");
    assert!(
        degraded_flagged > 0,
        "a batch submitted faster than it drains must cross the degrade watermark: {stats:?}"
    );
    // At least one kill must land as a detected mid-job death. (Not all
    // three are guaranteed: a doomed worker that spends the rest of the
    // campaign wedged or starved never registers another job, so its kill
    // flag is legitimately never consumed. The exact-count accounting is
    // pinned in `serve_smoke.rs`.)
    assert!(stats.worker_deaths >= 1, "at least one kill must be detected: {stats:?}");

    let audit = service.cache().audit();
    assert_eq!(audit.corrupted, 0, "the checksum audit must come back clean");

    let final_stats = service.shutdown();
    let recovery = elastic_serve::replay(&journal).unwrap();
    assert_eq!(recovery.rejected_lines, 0, "no torn or corrupt journal lines");
    assert_eq!(recovery.lost_inline, 0);
    assert!(recovery.pending.is_empty(), "zero jobs lost: {:?}", recovery.pending);
    assert_eq!(
        recovery.completed.len() as u64,
        final_stats.completed + final_stats.permanent_failures,
        "one terminal journal record per accepted job"
    );
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn cold_restart_resumes_pending_work_without_redoing_completed_work() {
    let jobs = 60u64;
    let journal = temp_journal("restart");
    let _ = std::fs::remove_file(&journal);
    let seed_pool = jobs / 3;

    // Phase 1: submit the batch, let roughly a third finish, then crash.
    let service =
        Service::start(chaos_config(jobs, Some(journal.clone()), SelfTest::default())).unwrap();
    for index in 0..jobs {
        service.submit(chaos_spec(index, seed_pool));
    }
    let progress_deadline = std::time::Instant::now() + Duration::from_secs(300);
    loop {
        let stats = service.stats();
        if stats.completed + stats.permanent_failures >= jobs / 3 {
            break;
        }
        assert!(
            std::time::Instant::now() < progress_deadline,
            "the service must make progress before the simulated crash"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    service.halt(); // simulated crash: backlog abandoned, no farewell records

    // Phase 2: replay the journal and resume on a fresh service.
    let recovery = replay(&journal).unwrap();
    assert_eq!(recovery.rejected_lines, 0, "the torn-tail guard keeps the prefix intact");
    assert!(
        !recovery.completed.is_empty() && !recovery.pending.is_empty(),
        "the crash must land mid-campaign (completed {}, pending {})",
        recovery.completed.len(),
        recovery.pending.len()
    );

    let resumed_service =
        Service::start(chaos_config(jobs, Some(journal.clone()), SelfTest::default())).unwrap();
    let resumed = resumed_service.resume(&recovery);

    // `resume` must resubmit exactly the pending jobs whose design+pipeline
    // the journal did NOT already see complete (at either fidelity) — the
    // skip set is recomputed here independently through the public key API.
    let completed: std::collections::HashSet<(u64, u64)> =
        recovery.completed.iter().copied().collect();
    let expected: Vec<u64> = recovery
        .pending
        .iter()
        .filter(|pending| {
            let kind = PipelineKind::from_name(&pending.kind).unwrap();
            let spec = JobSpec::seeded(pending.seed, &pending.preset, kind);
            ![false, true].iter().any(|&degraded| {
                let key = resumed_service.cache_key(&spec, degraded).unwrap();
                completed.contains(&(key.structural, key.pipeline))
            })
        })
        .map(|pending| pending.job)
        .collect();
    let resumed_old_ids: Vec<u64> = resumed.iter().map(|&(old, _)| old).collect();
    assert_eq!(resumed_old_ids, expected, "resume must skip exactly the already-completed designs");
    for &(old, new) in &resumed {
        assert!(
            new >= recovery.next_job_id,
            "resumed job {old} reused journalled id {new} (next fresh id {})",
            recovery.next_job_id
        );
    }

    // Phase 3: drain the resumed work; the journal must now close the book.
    assert!(resumed_service.drain(Duration::from_secs(600)), "resumed backlog must drain");
    for &(old, new) in &resumed {
        let outcome = resumed_service.outcome(new).unwrap();
        assert!(
            !matches!(outcome, JobOutcome::Shed),
            "recovered job {old} must be processed, not shed"
        );
    }
    let final_stats = resumed_service.shutdown();
    assert_eq!(final_stats.submitted, resumed.len() as u64);

    let closing = elastic_serve::replay(&journal).unwrap();
    assert_eq!(closing.rejected_lines, 0);
    if !closing.pending.is_empty() {
        let text = std::fs::read_to_string(&journal).unwrap();
        for pending in &closing.pending {
            let needle = format!(" {} ", pending.job);
            for line in text.lines().filter(|l| l.contains(&needle)) {
                eprintln!("journal line for leaked job {}: {line}", pending.job);
            }
        }
        panic!("no pending work may survive the resumed drain: {:?}", closing.pending);
    }
    // Every recovered pending entry ends with exactly one completed record:
    // skipped entries are closed from history, resubmitted ones complete
    // under their new id (the old id's `resumed` marker counts for neither).
    assert_eq!(
        closing.completed.len(),
        recovery.completed.len() + recovery.pending.len(),
        "the resumed run must close the book on every recovered job"
    );
    std::fs::remove_file(&journal).unwrap();
}
