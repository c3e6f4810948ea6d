//! Crash-recoverable job journal.
//!
//! The service appends one line per job-lifecycle event to a plain text
//! file; on restart it replays the file to learn which jobs were completed
//! (never redo those) and which were accepted but still unfinished (resubmit
//! those). The format is deliberately primitive — no framing beyond the
//! newline, no index, no compaction — because the recovery property it has
//! to deliver is narrow: *after a crash at any byte offset, replay must
//! yield a prefix of the true history, never an invented record*.
//!
//! Each line is
//!
//! ```text
//! <fnv16 hex of body>|<body>
//! ```
//!
//! with bodies like
//!
//! ```text
//! submit 12 9f3c0a11deadbeef 7 seeded 0x5eed default
//! start 12 0
//! done 12 ok
//! shed 13
//! ```
//!
//! A crash mid-`write` leaves at most one torn final line; the checksum
//! rejects it (and any other corruption) and replay simply stops trusting
//! the tail. Because every record is self-checksummed and the file is
//! append-only, a torn tail can only lose the *last* event — which the
//! service model tolerates: a lost `submit` means the client never got an
//! acknowledgement, a lost `done` means the job reruns (results are
//! idempotent and cache-checked), a lost `start` is irrelevant to recovery.
//!
//! Only *seeded* jobs (regenerable from `elastic-gen` by seed + preset) are
//! resumable; inline netlists are journalled for accounting but marked
//! non-resumable, since the netlist itself is not persisted.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use elastic_core::mix::fnv;

/// One journalled lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A job was admitted to the queue. `seeded` carries `(seed, preset)`
    /// when the job can be regenerated on recovery; `None` marks an inline
    /// submission whose netlist is not persisted.
    Submit {
        /// Service-assigned job id.
        job: u64,
        /// Canonical structural hash of the netlist.
        structural: u64,
        /// Pipeline discriminant (part of the cache key).
        pipeline: u64,
        /// Pipeline kind token (`gauntlet`, `verify`); recovery needs the
        /// *kind* to resubmit, not just the key-discriminant hash.
        kind: String,
        /// Regeneration recipe, when the job came from the generator.
        seeded: Option<(u64, String)>,
    },
    /// An attempt at the job began on some worker.
    Start {
        /// Service-assigned job id.
        job: u64,
        /// Zero-based attempt number.
        attempt: u32,
    },
    /// The job reached a terminal state. `outcome` is a single
    /// whitespace-free token (`ok`, `ok-degraded`, `failed-permanent`, …).
    Done {
        /// Service-assigned job id.
        job: u64,
        /// Terminal outcome token.
        outcome: String,
    },
    /// The job was refused at admission (queue full).
    Shed {
        /// Service-assigned job id.
        job: u64,
    },
}

impl Record {
    fn body(&self) -> String {
        match self {
            Record::Submit { job, structural, pipeline, kind, seeded } => {
                debug_assert!(!kind.contains(char::is_whitespace), "kinds are single tokens");
                let mut body = format!("submit {job} {structural:016x} {pipeline:016x} {kind}");
                match seeded {
                    Some((seed, preset)) => {
                        debug_assert!(
                            !preset.contains(char::is_whitespace),
                            "presets are single tokens"
                        );
                        write!(body, " seeded {seed:#x} {preset}").unwrap();
                    }
                    None => body.push_str(" inline"),
                }
                body
            }
            Record::Start { job, attempt } => format!("start {job} {attempt}"),
            Record::Done { job, outcome } => {
                debug_assert!(!outcome.contains(char::is_whitespace), "outcomes are single tokens");
                format!("done {job} {outcome}")
            }
            Record::Shed { job } => format!("shed {job}"),
        }
    }

    fn parse(body: &str) -> Option<Record> {
        let mut words = body.split_ascii_whitespace();
        let record = match words.next()? {
            "submit" => {
                let job = words.next()?.parse().ok()?;
                let structural = u64::from_str_radix(words.next()?, 16).ok()?;
                let pipeline = u64::from_str_radix(words.next()?, 16).ok()?;
                let kind = words.next()?.to_string();
                let seeded = match words.next()? {
                    "seeded" => {
                        let seed = words.next()?;
                        let seed = seed
                            .strip_prefix("0x")
                            .and_then(|hex| u64::from_str_radix(hex, 16).ok())?;
                        Some((seed, words.next()?.to_string()))
                    }
                    "inline" => None,
                    _ => return None,
                };
                Record::Submit { job, structural, pipeline, kind, seeded }
            }
            "start" => Record::Start {
                job: words.next()?.parse().ok()?,
                attempt: words.next()?.parse().ok()?,
            },
            "done" => Record::Done {
                job: words.next()?.parse().ok()?,
                outcome: words.next()?.to_string(),
            },
            "shed" => Record::Shed { job: words.next()?.parse().ok()? },
            _ => return None,
        };
        if words.next().is_some() {
            return None;
        }
        Some(record)
    }
}

fn checksum(body: &str) -> String {
    format!("{:016x}", fnv(body.as_bytes()))
}

/// Append-only writer half of the journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` for appending.
    ///
    /// If the previous process died mid-write the file may end in a torn,
    /// newline-less fragment; appending straight after it would corrupt the
    /// *next* record too, so the fragment is first terminated with a
    /// newline. Replay then rejects exactly the one torn line.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Journal> {
        let path = path.into();
        let mut file = OpenOptions::new().create(true).read(true).append(true).open(&path)?;
        let torn_tail = file.metadata()?.len() > 0 && {
            file.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)?;
            last[0] != b'\n'
        };
        let mut writer = BufWriter::new(file);
        if torn_tail {
            writer.write_all(b"\n")?;
            writer.flush()?;
        }
        Ok(Journal { path, writer: Mutex::new(writer) })
    }

    /// Where this journal lives (hand this to [`replay`] after a restart).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and flushes it to the OS. Each line carries its
    /// own checksum, so a torn write is detected — not repaired — on replay.
    pub fn append(&self, record: &Record) -> std::io::Result<()> {
        let body = record.body();
        let line = format!("{}|{}\n", checksum(&body), body);
        let mut writer = self.writer.lock().expect("journal writer poisoned");
        writer.write_all(line.as_bytes())?;
        writer.flush()
    }
}

/// A still-unfinished seeded job recovered from the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingJob {
    /// The id the job had in the previous run (informational; resubmission
    /// assigns a fresh id).
    pub job: u64,
    /// Pipeline kind token the job was submitted under.
    pub kind: String,
    /// Generator seed to regenerate the netlist from.
    pub seed: u64,
    /// Generator preset name the seed was drawn under.
    pub preset: String,
}

/// Everything recovery needs, distilled from a journal replay.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Cache keys `(structural, pipeline)` of jobs that reached `done` —
    /// completed work that must not be redone after a restart.
    pub completed: Vec<(u64, u64)>,
    /// Seeded jobs submitted but never `done` (and not shed): resubmit.
    pub pending: Vec<PendingJob>,
    /// Inline (non-resumable) jobs that were lost with the crash; surfaced
    /// so callers can report them rather than silently dropping work.
    pub lost_inline: usize,
    /// First job id that is safely fresh (max journalled id + 1).
    pub next_job_id: u64,
    /// Lines rejected by the checksum — a torn tail, or corruption.
    pub rejected_lines: usize,
}

/// Replays a journal file. A missing file is an empty history, not an
/// error; unreadable *content* degrades to rejected lines.
pub fn replay(path: impl AsRef<Path>) -> std::io::Result<Recovery> {
    let text = match std::fs::read_to_string(path.as_ref()) {
        Ok(text) => text,
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(error) => return Err(error),
    };
    let mut recovery = Recovery::default();
    struct JobState {
        structural: u64,
        pipeline: u64,
        kind: String,
        seeded: Option<(u64, String)>,
        finished: bool,
    }
    let mut jobs: HashMap<u64, JobState> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for line in text.lines() {
        let parsed = line
            .split_once('|')
            .filter(|(sum, body)| *sum == checksum(body))
            .and_then(|(_, body)| Record::parse(body));
        let Some(record) = parsed else {
            recovery.rejected_lines += 1;
            continue;
        };
        match record {
            Record::Submit { job, structural, pipeline, kind, seeded } => {
                recovery.next_job_id = recovery.next_job_id.max(job + 1);
                jobs.insert(job, JobState { structural, pipeline, kind, seeded, finished: false });
                order.push(job);
            }
            Record::Start { job, .. } => {
                recovery.next_job_id = recovery.next_job_id.max(job + 1);
            }
            Record::Done { job, outcome } => {
                recovery.next_job_id = recovery.next_job_id.max(job + 1);
                if let Some(state) = jobs.get_mut(&job) {
                    // A `resumed` record closes the old id of a job that was
                    // resubmitted under a fresh id after a restart: the work
                    // is not pending (the new id tracks it), but it has not
                    // completed either.
                    if outcome != "resumed" {
                        recovery.completed.push((state.structural, state.pipeline));
                    }
                    state.finished = true;
                }
            }
            Record::Shed { job } => {
                recovery.next_job_id = recovery.next_job_id.max(job + 1);
                // A shed job was never accepted; nothing to resume.
                if let Some(state) = jobs.get_mut(&job) {
                    state.finished = true;
                }
            }
        }
    }
    for job in order {
        let state = &jobs[&job];
        if state.finished {
            continue;
        }
        match &state.seeded {
            Some((seed, preset)) => {
                recovery.pending.push(PendingJob {
                    job,
                    kind: state.kind.clone(),
                    seed: *seed,
                    preset: preset.clone(),
                });
            }
            None => recovery.lost_inline += 1,
        }
    }
    Ok(recovery)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("elastic-serve-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.journal", std::process::id()))
    }

    fn submit(job: u64, seeded: Option<(u64, &str)>) -> Record {
        Record::Submit {
            job,
            structural: 0x1111 * job,
            pipeline: 7,
            kind: "verify".into(),
            seeded: seeded.map(|(seed, preset)| (seed, preset.to_string())),
        }
    }

    #[test]
    fn records_round_trip_through_the_line_format() {
        for record in [
            submit(3, Some((0x5eed, "default"))),
            submit(4, None),
            Record::Start { job: 3, attempt: 2 },
            Record::Done { job: 3, outcome: "ok-degraded".into() },
            Record::Shed { job: 9 },
        ] {
            let body = record.body();
            assert_eq!(Record::parse(&body).as_ref(), Some(&record), "body `{body}`");
        }
    }

    #[test]
    fn replay_partitions_completed_pending_and_lost() {
        let path = temp_path("partition");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open(&path).unwrap();
        for record in [
            submit(0, Some((0xa, "default"))),
            submit(1, Some((0xb, "small"))),
            submit(2, None),
            Record::Start { job: 0, attempt: 0 },
            Record::Done { job: 0, outcome: "ok".into() },
            submit(3, Some((0xc, "loops"))),
            Record::Shed { job: 3 },
        ] {
            journal.append(&record).unwrap();
        }
        let recovery = replay(&path).unwrap();
        assert_eq!(recovery.completed, vec![(0, 7)]);
        assert_eq!(
            recovery.pending,
            vec![PendingJob { job: 1, kind: "verify".into(), seed: 0xb, preset: "small".into() }]
        );
        assert_eq!(recovery.lost_inline, 1);
        assert_eq!(recovery.next_job_id, 4);
        assert_eq!(recovery.rejected_lines, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_resumed_marker_closes_the_old_id_without_claiming_completion() {
        let path = temp_path("resumed");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open(&path).unwrap();
        for record in [
            submit(0, Some((0xa, "small"))),
            Record::Done { job: 0, outcome: "resumed".into() },
            submit(1, Some((0xa, "small"))),
            Record::Done { job: 1, outcome: "ok".into() },
        ] {
            journal.append(&record).unwrap();
        }
        let recovery = replay(&path).unwrap();
        assert!(recovery.pending.is_empty(), "the resumed old id must not be pending");
        assert_eq!(
            recovery.completed,
            vec![(0x1111, 7)],
            "only the new id's terminal record counts as completed work"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_torn_tail_is_rejected_without_poisoning_the_prefix() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open(&path).unwrap();
        journal.append(&submit(0, Some((0x1, "default")))).unwrap();
        journal.append(&Record::Done { job: 0, outcome: "ok".into() }).unwrap();
        drop(journal);
        // Simulate a crash mid-write: append half a line, checksum and all.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let full = submit(1, None).body();
        let line = format!("{}|{}", checksum(&full), full);
        text.push_str(&line[..line.len() / 2]);
        std::fs::write(&path, &text).unwrap();
        let recovery = replay(&path).unwrap();
        assert_eq!(recovery.rejected_lines, 1, "torn tail must be rejected");
        assert_eq!(recovery.completed.len(), 1, "intact prefix must survive");
        assert!(recovery.pending.is_empty());
        // The journal reopens for appending and new records land cleanly
        // after the junk tail (which lacks a newline — reopened writers must
        // still produce parseable history for everything *they* write).
        let journal = Journal::open(&path).unwrap();
        journal.append(&submit(2, Some((0x2, "small")))).unwrap();
        let recovery = replay(&path).unwrap();
        assert_eq!(recovery.pending.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_flipped_byte_anywhere_is_detected() {
        let path = temp_path("flip");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open(&path).unwrap();
        journal.append(&submit(0, Some((0x1, "default")))).unwrap();
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = bytes.len() / 2;
        bytes[victim] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let recovery = replay(&path).unwrap();
        assert_eq!(recovery.rejected_lines, 1);
        assert!(recovery.pending.is_empty() && recovery.completed.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
