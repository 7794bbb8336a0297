//! Observability chaos tests: same-seed fault schedules must replay the
//! identical stitched trace trees, the identical SLO event sequence, and
//! structurally identical flight-recorder dumps — and the tail exemplars
//! retained by the latency histogram must resolve to traces that actually
//! exist in the sink.
//!
//! Determinism holds for the same reason the breaker trace replays: one
//! client and one worker give a fully scripted request order, SLO windows
//! are counted in requests, and injected latency is charged virtually.
//! Timings (span durations, queue/total nanoseconds) differ run to run;
//! everything *structural* must not.

#![allow(clippy::expect_used)]

use std::path::PathBuf;
use std::sync::Arc;

use pup_ckpt::chaos::FaultPlan;
use pup_obs::slo::{SloEngine, SloEvent, SloLevel, SloSpec};
use pup_obs::trace::{tree_shape, TraceSink, TraceSpanRecord};
use pup_serve::engine::handle_now;
use pup_serve::flight::PostMortem;
use pup_serve::stats::ServeReport;
use pup_serve::{
    run_closed_loop, BenchConfig, BreakerConfig, Fallback, GenScorerFactory, Request, ScoreError,
    Scorer, ServeConfig, ServiceShared,
};

struct Linear {
    n_users: usize,
    n_items: usize,
}

impl Scorer for Linear {
    fn name(&self) -> &str {
        "linear"
    }
    fn n_items(&self) -> usize {
        self.n_items
    }
    fn score(&self, user: usize) -> Result<Vec<f64>, ScoreError> {
        if user >= self.n_users {
            return Err(ScoreError::UserOutOfRange { user, n_users: self.n_users });
        }
        Ok((0..self.n_items).map(|i| i as f64).collect())
    }
}

const N_USERS: usize = 4;
const N_ITEMS: usize = 8;

fn fallback() -> Fallback {
    Fallback::from_train(N_USERS, N_ITEMS, &[(0, 1), (1, 2), (2, 3), (3, 2)]).expect("fallback")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pup-obs-chaos-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Everything structural one instrumented chaos run produces.
struct ObsRun {
    report: ServeReport,
    spans: Vec<TraceSpanRecord>,
    /// `tree_shape` of every trace, in trace-id order.
    trees: Vec<(u64, String)>,
    slo_events: Vec<SloEvent>,
    /// Flight-ring projection with the timing fields dropped:
    /// (seq, trace, source, breaker, generation).
    flight: Vec<(u64, u64, u64, u64, u64)>,
    /// Dump file names (not paths), in trigger order.
    dump_names: Vec<String>,
    exemplar_traces: Vec<u64>,
    max_exemplar_value: f64,
}

/// A virtual latency spike, charged without sleeping.
const SPIKE_NS: u64 = 5_000_000_000;

/// One fully instrumented single-client chaos run: scorer faults trip the
/// breaker, 5 s virtual spikes blow the 1 s latency objective (page, then
/// recover as the violation slides out of both windows).
///
/// The objective and the deadline sit far above any real request latency,
/// so only the injected spikes can breach them: a scheduling stall on a
/// loaded host cannot change the SLO events or the request outcomes.
fn run_instrumented(tag: &str) -> ObsRun {
    let plan = FaultPlan::scorer_errors_at([3, 4, 5, 6])
        .with_latency_spikes([(10, SPIKE_NS), (20, SPIKE_NS)]);
    let cfg = ServeConfig {
        workers: 1,
        max_retries: 0,
        deadline_ns: 12 * SPIKE_NS,
        breaker: BreakerConfig { failure_threshold: 3, cooldown_requests: 4, close_after: 2 },
        ..Default::default()
    };
    let dir = scratch_dir(tag);
    let mut shared = ServiceShared::with_faults(cfg, fallback(), N_USERS, plan);
    shared.enable_tracing(TraceSink::new());
    let spec = SloSpec::parse("avail=0.99,p99-ms=1000,fast=4,slow=8,warn=2,page=5,min=2")
        .expect("valid slo spec");
    shared.enable_slo(SloEngine::new(spec));
    shared.enable_flight_recorder(PostMortem::new(dir.clone(), 32));
    let shared = Arc::new(shared);
    let factory: GenScorerFactory =
        Arc::new(|_gen| Ok(Box::new(Linear { n_users: N_USERS, n_items: N_ITEMS })));
    let bench = BenchConfig { requests: 60, clients: 1, k: 3, seed: 42 };
    let report = run_closed_loop(Arc::clone(&shared), factory, bench, None)
        .expect("chaos bench must finish");

    let spans = shared.tracer.as_ref().expect("tracer attached").snapshot_spans();
    let mut trace_ids: Vec<u64> = spans.iter().map(|s| s.trace).collect();
    trace_ids.sort_unstable();
    trace_ids.dedup();
    let trees: Vec<(u64, String)> = trace_ids.iter().map(|&t| (t, tree_shape(&spans, t))).collect();

    let postmortem = shared.postmortem.as_ref().expect("recorder attached");
    let flight: Vec<(u64, u64, u64, u64, u64)> = postmortem
        .recorder()
        .snapshot()
        .iter()
        .map(|r| (r.seq, r.trace, r.source, r.breaker, r.generation))
        .collect();
    let dump_names: Vec<String> = postmortem
        .dumped_paths()
        .iter()
        .map(|p| p.file_name().expect("dump file name").to_string_lossy().into_owned())
        .collect();

    let exemplars = shared.stats.total_exemplars();
    let exemplar_traces: Vec<u64> = exemplars.iter().map(|e| e.trace).collect();
    let max_exemplar_value = exemplars.iter().fold(0.0_f64, |m, e| m.max(e.value));
    let slo_events = report.slo_events.clone();
    std::fs::remove_dir_all(&dir).ok();
    ObsRun {
        report,
        spans,
        trees,
        slo_events,
        flight,
        dump_names,
        exemplar_traces,
        max_exemplar_value,
    }
}

#[test]
fn stitched_trees_slo_events_and_recorder_dumps_replay_identically() {
    let a = run_instrumented("a");
    let b = run_instrumented("b");

    // (a) Trace trees: one tree per admitted request, stitched across the
    // submit thread and the worker thread, identical shapes across runs.
    assert_eq!(a.trees.len() as u64, a.report.admitted, "one stitched tree per admitted request");
    assert_eq!(a.trees, b.trees, "same seed must replay identical trace trees");
    let primary_tree = "request\n  queue\n  score\n    rank\n  respond\n";
    assert!(
        a.trees.iter().any(|(_, shape)| shape == primary_tree),
        "a primary request must produce the canonical queue→score→rank→respond tree; got {:?}",
        a.trees.first()
    );
    let degraded_tree = "request\n  queue\n  score\n  fallback\n  respond\n";
    assert!(
        a.trees.iter().any(|(_, shape)| shape == degraded_tree),
        "a scorer-failed request must show score (no rank) then fallback"
    );
    let breaker_open_tree = "request\n  queue\n  fallback\n  respond\n";
    assert!(
        a.trees.iter().any(|(_, shape)| shape == breaker_open_tree),
        "a breaker-open request must route straight to fallback"
    );

    // (b) SLO events: the 5 s spikes page the 1 s latency objective, the
    // violation slides out of both windows and the monitor recovers — and
    // the whole sequence replays bit-identically.
    assert_eq!(a.slo_events, b.slo_events, "same seed must replay the identical SLO sequence");
    assert!(
        a.slo_events.iter().any(|e| e.level == SloLevel::Page),
        "the spikes must page: {:?}",
        a.slo_events
    );
    assert_eq!(
        a.slo_events.last().map(|e| e.level),
        Some(SloLevel::Recovered),
        "the run must end recovered: {:?}",
        a.slo_events
    );
    assert_eq!(a.report.slo_unrecovered_pages, 0);

    // (c) Flight recorder: structural projection (everything but the two
    // timing fields) and the dump trigger sequence replay identically.
    assert_eq!(a.flight, b.flight, "same seed must replay identical flight records");
    assert_eq!(a.flight.len(), 32, "the ring holds the last capacity records");
    assert_eq!(a.dump_names, b.dump_names, "same seed must fire the same dumps in order");
    assert!(
        a.dump_names.iter().any(|n| n.contains("breaker-trip")),
        "breaker trips must dump: {:?}",
        a.dump_names
    );
    assert!(
        a.dump_names.iter().any(|n| n.contains("slo-page")),
        "SLO pages must dump: {:?}",
        a.dump_names
    );

    // (d) Tail exemplars resolve: every bucket's retained trace id names a
    // trace that exists in the sink, and the slowest exemplar carries the
    // virtual spike.
    assert!(!a.exemplar_traces.is_empty(), "traced observations must retain exemplars");
    for trace in &a.exemplar_traces {
        assert!(
            a.spans.iter().any(|s| s.trace == *trace),
            "exemplar trace {trace} must resolve to a stitched trace"
        );
    }
    assert!(
        a.max_exemplar_value >= SPIKE_NS as f64,
        "the slowest exemplar must carry the spike latency, got {}",
        a.max_exemplar_value
    );
}

#[test]
fn publish_obs_bridges_traces_events_and_exemplars_into_telemetry() {
    let plan = FaultPlan::scorer_errors_at([3, 4, 5]).with_latency_spikes([(10, 5_000_000)]);
    let cfg = ServeConfig {
        workers: 1,
        max_retries: 0,
        breaker: BreakerConfig { failure_threshold: 3, cooldown_requests: 4, close_after: 2 },
        ..Default::default()
    };
    let mut shared = ServiceShared::with_faults(cfg, fallback(), N_USERS, plan);
    shared.enable_tracing(TraceSink::new());
    let spec =
        SloSpec::parse("p99-ms=1,fast=4,slow=8,warn=2,page=5,min=2").expect("valid slo spec");
    shared.enable_slo(SloEngine::new(spec));
    let shared = Arc::new(shared);
    let factory: GenScorerFactory =
        Arc::new(|_gen| Ok(Box::new(Linear { n_users: N_USERS, n_items: N_ITEMS })));
    let bench = BenchConfig { requests: 40, clients: 1, k: 3, seed: 7 };
    run_closed_loop(Arc::clone(&shared), factory, bench, None).expect("bench runs");

    pup_obs::start();
    shared.publish_obs();
    let telemetry = pup_obs::finish();
    assert!(!telemetry.traces.is_empty(), "trace spans must bridge into telemetry");
    assert!(!telemetry.slo_events.is_empty(), "SLO events must bridge into telemetry");
    assert!(!telemetry.exemplars.is_empty(), "tail exemplars must bridge into telemetry");
    let trace_ids = telemetry.trace_ids();
    for ex in &telemetry.exemplars {
        assert!(
            trace_ids.binary_search(&ex.trace).is_ok(),
            "exemplar trace {} must exist among the bridged traces",
            ex.trace
        );
    }
    // The JSONL round-trip carries all of it: what serve-bench writes,
    // report-telemetry and slo-report can read back.
    let text = telemetry.to_jsonl_string();
    let back = pup_obs::Telemetry::from_jsonl_str(&text).expect("parses");
    assert_eq!(back, telemetry);
}

#[test]
fn synchronous_requests_are_counted_once_in_telemetry() {
    // Attempt 1 fails and is retried, attempt 3 spikes; user 9 is invalid.
    let plan = FaultPlan::scorer_errors_at([1]).with_latency_spikes([(3, 1_000)]);
    let shared = ServiceShared::with_faults(ServeConfig::default(), fallback(), N_USERS, plan);
    let scorer = Linear { n_users: N_USERS, n_items: N_ITEMS };
    pup_obs::start();
    for user in [0, 1, 2, 9] {
        let _ = handle_now(&shared, &scorer, Request { user, k: 3 });
    }
    shared.publish_obs();
    let telemetry = pup_obs::finish();
    let r = shared.report();
    assert_eq!((r.scorer_faults, r.retries, r.latency_spikes), (1, 1, 1), "{r:?}");
    for (name, want) in [
        ("serve.submitted", r.submitted),
        ("serve.admitted", r.admitted),
        ("serve.shed", r.shed),
        ("serve.rejected.deadline", r.rejected_deadline),
        ("serve.rejected.invalid", r.rejected_invalid),
        ("serve.answered.primary", r.primary),
        ("serve.answered.degraded", r.degraded()),
        ("serve.scorer_faults", r.scorer_faults),
        ("serve.latency_spikes", r.latency_spikes),
        ("serve.retries", r.retries),
        ("serve.breaker.trips", r.breaker_trips),
        ("serve.breaker.half_opens", r.breaker_half_opens),
        ("serve.breaker.closes", r.breaker_closes),
        ("swap.started", r.swaps_started),
        ("swap.shadow_scored", r.shadow_scored),
        ("swap.shadow_errors", r.shadow_errors),
    ] {
        assert_eq!(telemetry.counter(name).unwrap_or(0), want, "{name} must equal ServeReport");
    }
}
