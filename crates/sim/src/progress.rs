//! Per-run progress handles: the run's own report.
//!
//! A [`ProgressHandle`] is a cheap shared cell describing one run — an
//! experiment, or a `duplo serve` submission: its lifecycle (`queued →
//! running → done | failed`), the simulated cycles and the run-cache
//! lookups ([`crate::cache::CacheStats`]) of every kernel run carrying it
//! in [`crate::RunOptions::progress`], which [`crate::GpuSim::run`] adds
//! as each kernel finishes. Per-run cache reports (the CLI's `cache:`
//! lines and JSON host block, `duplo serve`'s cache headers) read it, so
//! they count exactly that run's lookups however many runs share the
//! process. `duplo serve` also serves snapshots from the
//! `GET /v1/progress/<digest>` long-poll endpoint.
//!
//! Every mutation bumps a sequence number and wakes waiters, so a client
//! can long-poll with `?since=<seq>` and block until something actually
//! changed instead of spinning.

use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::cache::CacheStats;
use crate::json::Json;

/// Lifecycle state of one submission.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, not yet simulating.
    Queued,
    /// Simulation in flight (the cycles gauge is live).
    Running,
    /// Finished successfully; the result is in the daemon's store.
    Done,
    /// Finished with an error (or a worker panic).
    Failed,
}

impl JobState {
    /// Wire label (`"queued"` | `"running"` | `"done"` | `"failed"`).
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Whether the job can no longer change state.
    pub fn terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

struct Shared {
    inner: Mutex<ProgressSnapshot>,
    cv: Condvar,
}

/// Point-in-time view of a job (see [`ProgressHandle::snapshot`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Current lifecycle state.
    pub state: JobState,
    /// Simulated cycles accumulated so far.
    pub cycles: u64,
    /// The run's cache lookups so far (not on the `/v1/progress` wire).
    pub cache: CacheStats,
    /// Change counter; pass back as `since` to long-poll.
    pub seq: u64,
    /// Every state passed through, in order (starts with `queued`).
    pub history: Vec<JobState>,
}

impl ProgressSnapshot {
    /// Wire encoding for the `/v1/progress/<digest>` endpoint.
    pub fn to_json(&self, job: &str) -> Json {
        let history: Vec<Json> = self.history.iter().map(|s| Json::from(s.label())).collect();
        Json::obj()
            .field("job", job)
            .field("state", self.state.label())
            .field("cycles", self.cycles)
            .field("seq", self.seq)
            .field("history", history)
            .build()
    }
}

/// Shared handle onto one job's progress cell. Clones observe and mutate
/// the same cell; equality is identity (two handles are equal iff they
/// share a cell).
#[derive(Clone)]
pub struct ProgressHandle(Arc<Shared>);

impl Default for ProgressHandle {
    fn default() -> Self {
        ProgressHandle::new()
    }
}

impl fmt::Debug for ProgressHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.snapshot();
        f.debug_struct("ProgressHandle")
            .field("state", &s.state)
            .field("cycles", &s.cycles)
            .field("cache", &s.cache)
            .field("seq", &s.seq)
            .finish()
    }
}

impl PartialEq for ProgressHandle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl ProgressHandle {
    /// Fresh handle in the `queued` state.
    pub fn new() -> ProgressHandle {
        ProgressHandle(Arc::new(Shared {
            inner: Mutex::new(ProgressSnapshot {
                state: JobState::Queued,
                cycles: 0,
                cache: CacheStats::default(),
                seq: 1,
                history: vec![JobState::Queued],
            }),
            cv: Condvar::new(),
        }))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProgressSnapshot> {
        self.0.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Moves the job to `state` (recorded in the history) and wakes
    /// long-pollers. Transitions out of a terminal state are ignored —
    /// a panic-path `failed` cannot overwrite a published `done`.
    pub fn set_state(&self, state: JobState) {
        let mut inner = self.lock();
        if inner.state.terminal() || inner.state == state {
            return;
        }
        inner.state = state;
        inner.history.push(state);
        inner.seq += 1;
        drop(inner);
        self.0.cv.notify_all();
    }

    /// Adds one finished kernel run — its simulated cycles and its cache
    /// lookup — and wakes long-pollers.
    pub fn add_run(&self, cycles: u64, cache: CacheStats) {
        let mut inner = self.lock();
        inner.cycles += cycles;
        inner.cache += cache;
        inner.seq += 1;
        drop(inner);
        self.0.cv.notify_all();
    }

    /// Current view of the job.
    pub fn snapshot(&self) -> ProgressSnapshot {
        self.lock().clone()
    }

    /// Blocks until the sequence number passes `since` (something
    /// changed), the job is terminal, or `timeout` elapses; returns the
    /// then-current snapshot.
    pub fn wait_past(&self, since: u64, timeout: Duration) -> ProgressSnapshot {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.lock();
        while inner.seq <= since && !inner.state.terminal() {
            let now = std::time::Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            let (guard, _timed_out) = self
                .0
                .cv
                .wait_timeout(inner, left)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
        inner.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_is_recorded_in_order() {
        let p = ProgressHandle::new();
        assert_eq!(p.snapshot().state, JobState::Queued);
        p.set_state(JobState::Running);
        let miss = CacheStats {
            misses: 1,
            bytes: 10,
            ..CacheStats::default()
        };
        let hit = CacheStats {
            hits: 1,
            ..CacheStats::default()
        };
        p.add_run(100, miss);
        p.add_run(50, hit);
        p.set_state(JobState::Done);
        let s = p.snapshot();
        assert_eq!(s.state, JobState::Done);
        assert_eq!(s.cycles, 150);
        assert_eq!(
            s.cache,
            CacheStats {
                hits: 1,
                misses: 1,
                bytes: 10
            }
        );
        assert_eq!(
            s.history,
            vec![JobState::Queued, JobState::Running, JobState::Done]
        );
        // Terminal states are sticky: a late `failed` cannot regress `done`.
        p.set_state(JobState::Failed);
        assert_eq!(p.snapshot().state, JobState::Done);
    }

    #[test]
    fn clones_share_one_cell_and_equality_is_identity() {
        let p = ProgressHandle::new();
        let q = p.clone();
        q.add_run(7, CacheStats::default());
        assert_eq!(p.snapshot().cycles, 7);
        assert_eq!(p, q);
        assert_ne!(p, ProgressHandle::new());
    }

    #[test]
    fn wait_past_wakes_on_change_and_times_out_quietly() {
        let p = ProgressHandle::new();
        let seq = p.snapshot().seq;
        // Timeout path: nothing changes.
        let s = p.wait_past(seq, Duration::from_millis(10));
        assert_eq!(s.seq, seq);
        // Wake path: a writer thread bumps the cell.
        let writer = {
            let p = p.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                p.set_state(JobState::Running);
            })
        };
        let s = p.wait_past(seq, Duration::from_secs(5));
        assert!(s.seq > seq, "waiter must observe the bump");
        assert_eq!(s.state, JobState::Running);
        writer.join().unwrap();
        // Terminal jobs return immediately regardless of `since`.
        p.set_state(JobState::Done);
        let s = p.wait_past(u64::MAX, Duration::from_secs(5));
        assert_eq!(s.state, JobState::Done);
    }
}
