//! Post-mortem flight recording: who dumps the black box, and when.
//!
//! [`pup_obs::recorder::FlightRecorder`] is the mechanism — a lock-free
//! ring of recent per-request records. This module is the policy around
//! it: [`PostMortem`] owns one ring plus a dump directory, watches the
//! three "something went wrong" signals (an SLO page, a breaker trip, a
//! swap rollback) through cheap monotone counters, and writes the ring to
//! an atomically renamed JSONL file the moment a signal fires. Triggers
//! are detected by polling from the worker loop *after* a request
//! completes, so the dump I/O never sits inside the audited hot path.
//!
//! Each signal is deduplicated with `fetch_max`: a dump fires only when
//! the observed counter moves past the highest value any poller has seen,
//! so N workers racing on the same trip produce one dump, and a dump names
//! the signal that fired it.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use pup_obs::recorder::{FlightRecord, FlightRecorder};
use pup_obs::trace::TraceId;

use crate::breaker::BreakerState;
use crate::deadline::Deadline;
use crate::engine::ServiceShared;
use crate::swap::SwapOutcome;
use crate::{Response, ServeError, Source, Stage};

/// Outcome code stored in a [`FlightRecord`]'s `source` field.
pub fn source_code(result: &Result<Response, ServeError>) -> u64 {
    match result {
        Ok(resp) => match resp.source {
            Source::Primary => 0,
            Source::DegradedBreakerOpen => 1,
            Source::DegradedDeadline => 2,
            Source::DegradedScorerFailed => 3,
        },
        Err(ServeError::DeadlineExceeded { stage: Stage::Queue, .. }) => 4,
        Err(ServeError::DeadlineExceeded { stage: Stage::Score, .. }) => 5,
        Err(ServeError::DeadlineExceeded { stage: Stage::Rank, .. }) => 6,
        Err(ServeError::Score(_)) => 7,
        Err(_) => 8,
    }
}

/// Human label of a [`source_code`] value, for dump files and reports.
pub fn source_label(code: u64) -> &'static str {
    match code {
        0 => "primary",
        1 => "degraded(breaker-open)",
        2 => "degraded(deadline)",
        3 => "degraded(scorer-failed)",
        4 => "rejected(deadline@queue)",
        5 => "rejected(deadline@score)",
        6 => "rejected(deadline@rank)",
        7 => "rejected(invalid)",
        _ => "rejected(other)",
    }
}

/// Breaker-state code stored in a [`FlightRecord`]'s `breaker` field.
pub fn breaker_code(state: BreakerState) -> u64 {
    match state {
        BreakerState::Closed => 0,
        BreakerState::Open => 1,
        BreakerState::HalfOpen => 2,
    }
}

/// Human label of a [`breaker_code`] value.
pub fn breaker_label(code: u64) -> &'static str {
    match code {
        0 => "closed",
        1 => "open",
        2 => "half-open",
        _ => "unknown",
    }
}

/// Records one finished request in the flight ring and polls the dump
/// triggers: the post-request step of both the worker loop and
/// [`crate::engine::handle_now`]. A no-op without a recorder.
pub(crate) fn record_request(
    shared: &ServiceShared,
    trace: TraceId,
    queue_ns: u64,
    result: &Result<Response, ServeError>,
    deadline: &Deadline,
) {
    let Some(postmortem) = &shared.postmortem else { return };
    let total_ns = match result {
        Ok(resp) => resp.latency_ns,
        Err(_) => deadline.elapsed_ns(),
    };
    postmortem.record(FlightRecord {
        seq: trace.0,
        trace: trace.0,
        source: source_code(result),
        queue_ns,
        total_ns,
        breaker: breaker_code(shared.breaker.state()),
        generation: shared.swap.active_gen(),
    });
    postmortem.poll(shared);
}

/// One service's flight-recorder policy: the ring, the dump directory,
/// and the high-water marks of the trigger counters.
pub struct PostMortem {
    recorder: FlightRecorder,
    dir: PathBuf,
    max_dumps: u64,
    dumps: AtomicU64,
    seen_pages: AtomicU64,
    seen_trips: AtomicU64,
    seen_rollbacks: AtomicU64,
    dumped: Mutex<Vec<PathBuf>>,
}

/// Poisoned-lock recovery: the dump-path list is append-only bookkeeping;
/// losing a path beats wedging the worker that polls the recorder.
fn locked(m: &Mutex<Vec<PathBuf>>) -> MutexGuard<'_, Vec<PathBuf>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl PostMortem {
    /// A recorder of `capacity` recent requests dumping into `dir`
    /// (created on first dump). At most [`Self::DEFAULT_MAX_DUMPS`] dumps
    /// are written per run; later triggers are counted but not dumped.
    pub fn new(dir: PathBuf, capacity: usize) -> Self {
        Self {
            recorder: FlightRecorder::new(capacity),
            dir,
            max_dumps: Self::DEFAULT_MAX_DUMPS,
            dumps: AtomicU64::new(0),
            seen_pages: AtomicU64::new(0),
            seen_trips: AtomicU64::new(0),
            seen_rollbacks: AtomicU64::new(0),
            dumped: Mutex::new(Vec::new()),
        }
    }

    /// Dump-count ceiling per run: a flapping breaker must not fill the
    /// disk with near-identical ring snapshots.
    pub const DEFAULT_MAX_DUMPS: u64 = 8;

    /// The underlying ring, for direct inspection.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Appends one per-request record to the ring. Lock-free.
    pub fn record(&self, rec: FlightRecord) {
        self.recorder.record(rec);
    }

    /// Paths of every dump written so far, in trigger order.
    pub fn dumped_paths(&self) -> Vec<PathBuf> {
        locked(&self.dumped).clone()
    }

    /// Dumps written so far.
    pub fn dump_count(&self) -> u64 {
        AtomicU64::load(&self.dumps, Ordering::Acquire)
    }

    /// `true` exactly once per increment of `current` past the high-water
    /// mark, across all polling threads.
    fn due(seen: &AtomicU64, current: u64) -> bool {
        AtomicU64::fetch_max(seen, current, Ordering::AcqRel) < current
    }

    /// Checks the three trigger signals against their high-water marks
    /// and dumps the ring for each one that advanced. Called from worker
    /// loops after a request completes — never from inside the hot path.
    pub fn poll(&self, shared: &ServiceShared) {
        let trips = shared.breaker.trips();
        if Self::due(&self.seen_trips, trips) {
            self.dump("breaker-trip", &format!("breaker tripped open (trip #{trips})"));
        }
        let rollbacks = shared.swap.rollbacks();
        if Self::due(&self.seen_rollbacks, rollbacks) {
            let note = shared
                .swap
                .transitions()
                .iter()
                .rev()
                .find_map(|t| match t.outcome {
                    SwapOutcome::RolledBack(reason) => Some(format!(
                        "gen {} rolled back ({}); gen {} keeps serving",
                        t.to_gen,
                        reason.label(),
                        t.from_gen
                    )),
                    SwapOutcome::Promoted => None,
                })
                .unwrap_or_else(|| "swap rolled back".to_string());
            self.dump("swap-rollback", &note);
        }
        if let Some(slo) = &shared.slo {
            let pages = slo.page_count();
            if Self::due(&self.seen_pages, pages) {
                self.dump("slo-page", &format!("SLO page #{pages}"));
            }
        }
    }

    /// Writes the current ring snapshot to
    /// `<dir>/flight-<n>-<reason>.jsonl` via a temp file + atomic rename,
    /// so a dump is never observed half-written. Failures are swallowed:
    /// diagnostics must never take the serving path down.
    pub fn dump(&self, reason: &str, note: &str) -> Option<PathBuf> {
        let n = AtomicU64::fetch_add(&self.dumps, 1, Ordering::AcqRel);
        if n >= self.max_dumps {
            return None;
        }
        let snapshot = self.recorder.snapshot();
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"t\":\"meta\",\"kind\":\"flight-dump\",\"reason\":\"{}\",\"note\":\"{}\",\
             \"records\":{},\"written\":{},\"capacity\":{}}}\n",
            reason,
            note.replace('\\', "\\\\").replace('"', "\\\""),
            snapshot.len(),
            self.recorder.written(),
            self.recorder.capacity()
        ));
        for rec in &snapshot {
            out.push_str(&format!(
                "{{\"t\":\"flight\",\"seq\":{},\"trace\":{},\"source\":\"{}\",\"queue_ns\":{},\
                 \"total_ns\":{},\"breaker\":\"{}\",\"generation\":{}}}\n",
                rec.seq,
                rec.trace,
                source_label(rec.source),
                rec.queue_ns,
                rec.total_ns,
                breaker_label(rec.breaker),
                rec.generation
            ));
        }
        let path = self.dir.join(format!("flight-{n}-{reason}.jsonl"));
        match write_atomic(&path, &out) {
            Ok(()) => {
                locked(&self.dumped).push(path.clone());
                Some(path)
            }
            Err(_) => None,
        }
    }
}

/// Temp-file + rename write: the destination either has the old content
/// or the complete new content, never a torn prefix.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_codes_round_trip_through_labels() {
        let ok =
            |source| Ok(Response { user: 0, items: vec![], source, latency_ns: 0, retries: 0 });
        assert_eq!(source_label(source_code(&ok(Source::Primary))), "primary");
        assert_eq!(
            source_label(source_code(&ok(Source::DegradedBreakerOpen))),
            "degraded(breaker-open)"
        );
        let rejected: Result<Response, ServeError> =
            Err(ServeError::DeadlineExceeded { stage: Stage::Queue, budget_ns: 1 });
        assert_eq!(source_label(source_code(&rejected)), "rejected(deadline@queue)");
    }

    #[test]
    fn dump_writes_ring_atomically_and_caps_count() {
        let dir = std::env::temp_dir().join(format!("pup-flight-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let pm = PostMortem::new(dir.clone(), 4);
        for seq in 0..6u64 {
            pm.record(FlightRecord { seq, trace: seq, ..FlightRecord::default() });
        }
        let path = pm.dump("breaker-trip", "note with \"quotes\"").expect("dump written");
        assert!(path.ends_with("flight-0-breaker-trip.jsonl"));
        let text = std::fs::read_to_string(&path).expect("readable");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "meta + 4 ring records: {text}");
        assert!(lines[0].contains("\"reason\":\"breaker-trip\""));
        assert!(lines[0].contains("note with \\\"quotes\\\""));
        assert!(lines[1].contains("\"seq\":2"), "oldest surviving record first: {}", lines[1]);
        // The cap: dumps beyond max_dumps are counted, not written.
        for i in 1..PostMortem::DEFAULT_MAX_DUMPS + 3 {
            let wrote = pm.dump("slo-page", "again").is_some();
            assert_eq!(wrote, i < PostMortem::DEFAULT_MAX_DUMPS, "dump {i}");
        }
        assert_eq!(pm.dumped_paths().len() as u64, PostMortem::DEFAULT_MAX_DUMPS);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn due_fires_once_per_increment_across_threads() {
        let seen = AtomicU64::new(0);
        assert!(!PostMortem::due(&seen, 0));
        assert!(PostMortem::due(&seen, 1));
        assert!(!PostMortem::due(&seen, 1));
        assert!(PostMortem::due(&seen, 3));
        assert!(!PostMortem::due(&seen, 2), "stale observation never re-fires");
    }
}
