//! # elastic-serve — a fault-tolerant design service
//!
//! Long-running service layer over the elastic-circuit toolkit: netlist
//! jobs (generate → transform → verify pipelines built from
//! `elastic-core`/`-sim`/`-verify`/`-gen`) flow through a sharded, bounded
//! queue into a pool of worker threads, wrapped in the robustness layers a
//! service needs that a batch harness does not:
//!
//! | layer | module | mechanism |
//! |---|---|---|
//! | failure containment | [`service`] | `catch_unwind` per attempt + per-job wall-clock deadlines |
//! | retry / timeout / backoff | [`service`] | transient-vs-permanent failure taxonomy, seeded-jitter exponential backoff, bounded retry budget |
//! | graceful degradation | [`queue`] | soft watermark → truncated verification (honestly flagged non-exhaustive), hard bound → load shedding |
//! | result caching | [`hash`], [`cache`] | canonical structural hash (WL refinement, node-id/name blind) → checksummed payloads, corruption evicted & recomputed |
//! | crash recovery | [`journal`] | append-only self-checksummed job journal; replay yields completed/pending split |
//!
//! The service also supervises its own workers: a thread that dies mid-job
//! is detected, its orphaned job requeued as a transient retry, and the
//! worker respawned — the chaos tests in the workspace root kill workers
//! deliberately and audit (via the journal) that zero accepted jobs are
//! ever lost.

#![warn(missing_docs)]

pub mod cache;
pub mod hash;
pub mod journal;
pub mod queue;
pub mod report;
pub mod service;

pub use cache::{CacheAudit, CacheKey, CacheStats, ResultCache};
pub use hash::structural_hash;
pub use journal::{replay, Journal, PendingJob, Record, Recovery};
pub use queue::{Admission, JobQueue};
pub use report::{decode, JobReport};
pub use service::{
    JobOutcome, JobSource, JobSpec, PipelineKind, SelfTest, Service, ServiceConfig, ServiceStats,
};
