//! Sharded, bounded job queue with load-shedding admission control.
//!
//! The queue is the service's containment boundary against overload: it
//! accepts work only while total depth is under a hard capacity (beyond
//! that, submissions are **shed** — refused outright with an honest signal,
//! rather than accepted into an unbounded backlog that converts overload
//! into latency and memory growth for everyone). Between the soft
//! `degrade_depth` watermark and the hard bound, submissions are accepted
//! but flagged for **degraded** processing, letting the service trade
//! verification exhaustiveness for throughput before it has to shed at all.
//!
//! Internally the queue is split into independently locked shards (indexed
//! by the submitter's key hash, so contention scales with parallelism, not
//! with a single hot mutex). Workers drain their own shard first and then
//! steal from the others; a condvar parks idle workers instead of spinning.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Outcome of [`JobQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The job was enqueued. `degraded` is set when depth had crossed the
    /// soft watermark — the worker should run the cheaper pipeline variant.
    Accepted {
        /// Run the degraded (truncated-coverage) pipeline variant.
        degraded: bool,
    },
    /// The queue was at its hard bound; the job was refused.
    Shed,
}

/// Bounded multi-shard MPMC queue.
#[derive(Debug)]
pub struct JobQueue<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
    depth: AtomicUsize,
    capacity: usize,
    degrade_depth: usize,
    closed: AtomicBool,
    shed: AtomicUsize,
    /// Parking lot for idle workers. The mutex guards nothing but the wait;
    /// all real state lives in the shards and `depth`.
    idle_lock: Mutex<()>,
    idle: Condvar,
}

impl<T> JobQueue<T> {
    /// Creates a queue with `shards` lanes, hard bound `capacity`, and soft
    /// degradation watermark `degrade_depth` (clamped into `1..=capacity`).
    pub fn new(shards: usize, capacity: usize, degrade_depth: usize) -> JobQueue<T> {
        let capacity = capacity.max(1);
        JobQueue {
            shards: (0..shards.max(1)).map(|_| Mutex::new(VecDeque::new())).collect(),
            depth: AtomicUsize::new(0),
            capacity,
            degrade_depth: degrade_depth.clamp(1, capacity),
            closed: AtomicBool::new(false),
            shed: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle: Condvar::new(),
        }
    }

    /// Current total depth across shards.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// How many submissions have been shed so far.
    pub fn shed_count(&self) -> usize {
        self.shed.load(Ordering::Relaxed)
    }

    /// Enqueues `item` on the shard selected by `shard_hint` (any
    /// well-mixed hash — the cache key's structural hash in practice),
    /// unless the hard bound or a closed queue forces a shed.
    pub fn push(&self, shard_hint: u64, item: T) -> Admission {
        self.push_with(shard_hint, |_| item)
    }

    /// Two-phase variant of [`push`](Self::push): the admission decision is
    /// made first and the item is *built* from it, so callers can bake the
    /// degraded flag into the queued job itself. `make` runs strictly
    /// before the item becomes visible to any worker — side effects in it
    /// (journalling the accepted submission, in the service) are ordered
    /// before the first worker touches the job.
    pub fn push_with(&self, shard_hint: u64, make: impl FnOnce(bool) -> T) -> Admission {
        if self.closed.load(Ordering::Acquire) {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Admission::Shed;
        }
        // Reserve a depth slot first so the hard bound holds under races:
        // concurrent pushes can transiently over-reserve, but every loser
        // releases its slot and sheds, so occupancy never exceeds capacity.
        let prior = self.depth.fetch_add(1, Ordering::AcqRel);
        if prior >= self.capacity {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Admission::Shed;
        }
        let degraded = prior + 1 > self.degrade_depth;
        let shard = (shard_hint as usize) % self.shards.len();
        // Build the item before taking the shard lock: `make` may do I/O.
        let item = make(degraded);
        self.shards[shard].lock().expect("queue shard poisoned").push_back(item);
        self.idle.notify_one();
        Admission::Accepted { degraded }
    }

    /// Re-enqueues an item the service already owns (a retry after a worker
    /// death). Unlike [`push`](Self::push) this never sheds — shedding an
    /// *accepted* job would silently lose it — so depth may transiently
    /// exceed the admission capacity by the number of in-flight retries.
    pub fn requeue(&self, shard_hint: u64, item: T) {
        self.depth.fetch_add(1, Ordering::AcqRel);
        let shard = (shard_hint as usize) % self.shards.len();
        self.shards[shard].lock().expect("queue shard poisoned").push_back(item);
        self.idle.notify_one();
    }

    /// Dequeues one item, blocking while the queue is open but empty.
    /// Workers pass their index so each drains a different home shard
    /// before stealing. Returns `None` only after [`close`](Self::close)
    /// once every item has been drained.
    pub fn pop(&self, worker: usize) -> Option<T> {
        loop {
            if let Some(item) = self.try_pop(worker) {
                return Some(item);
            }
            if self.closed.load(Ordering::Acquire) && self.depth() == 0 {
                return None;
            }
            // Timed wait: a missed notify (item pushed between our scan and
            // the park) costs one timeout tick, never a deadlock.
            let guard = self.idle_lock.lock().expect("queue idle lock poisoned");
            let _ = self
                .idle
                .wait_timeout(guard, Duration::from_millis(5))
                .expect("queue idle lock poisoned");
        }
    }

    /// Non-blocking dequeue: home shard first, then steal round-robin.
    pub fn try_pop(&self, worker: usize) -> Option<T> {
        let shards = self.shards.len();
        for offset in 0..shards {
            let shard = (worker + offset) % shards;
            let item = self.shards[shard].lock().expect("queue shard poisoned").pop_front();
            if let Some(item) = item {
                self.depth.fetch_sub(1, Ordering::AcqRel);
                return Some(item);
            }
        }
        None
    }

    /// Closes the queue: future pushes shed, and blocked `pop`s return
    /// `None` once the backlog drains.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.idle.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sheds_at_the_hard_bound_and_flags_past_the_soft_one() {
        let queue = JobQueue::new(2, 4, 2);
        assert_eq!(queue.push(0, "a"), Admission::Accepted { degraded: false });
        assert_eq!(queue.push(1, "b"), Admission::Accepted { degraded: false });
        assert_eq!(queue.push(2, "c"), Admission::Accepted { degraded: true });
        assert_eq!(queue.push(3, "d"), Admission::Accepted { degraded: true });
        assert_eq!(queue.push(4, "e"), Admission::Shed);
        assert_eq!(queue.depth(), 4);
        assert_eq!(queue.shed_count(), 1);
        // Draining reopens admission, back below the soft watermark.
        assert!(queue.try_pop(0).is_some());
        assert!(queue.try_pop(0).is_some());
        assert!(queue.try_pop(0).is_some());
        assert_eq!(queue.push(5, "f"), Admission::Accepted { degraded: false });
    }

    #[test]
    fn workers_steal_from_foreign_shards() {
        let queue = JobQueue::new(4, 16, 16);
        // Everything lands on shard 2; worker 0 must still find it.
        for item in 0..5 {
            assert!(matches!(queue.push(2, item), Admission::Accepted { .. }));
        }
        let mut drained: Vec<i32> = std::iter::from_fn(|| queue.try_pop(0)).collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn close_releases_blocked_workers_after_the_backlog_drains() {
        let queue = Arc::new(JobQueue::new(2, 8, 8));
        queue.push(0, 41);
        queue.push(1, 42);
        let workers: Vec<_> = (0..3)
            .map(|worker| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let mut drained = Vec::new();
                    while let Some(item) = queue.pop(worker) {
                        drained.push(item);
                    }
                    drained
                })
            })
            .collect();
        queue.close();
        assert_eq!(queue.push(0, 43), Admission::Shed, "closed queues shed");
        let mut drained: Vec<i32> = workers.into_iter().flat_map(|w| w.join().unwrap()).collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![41, 42], "close must not strand backlog or workers");
    }

    #[test]
    fn concurrent_pushes_never_exceed_capacity() {
        let queue = Arc::new(JobQueue::new(4, 32, 32));
        let pushers: Vec<_> = (0..8)
            .map(|lane| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    (0..64u64)
                        .filter(|&item| {
                            matches!(queue.push(lane * 7 + item, item), Admission::Accepted { .. })
                        })
                        .count()
                })
            })
            .collect();
        let accepted: usize = pushers.into_iter().map(|p| p.join().unwrap()).sum();
        assert_eq!(accepted, 32, "exactly `capacity` pushes may win");
        assert_eq!(queue.depth(), 32);
        assert_eq!(queue.shed_count(), 8 * 64 - 32);
    }
}
