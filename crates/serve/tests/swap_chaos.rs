//! Deterministic chaos tests for the zero-downtime model lifecycle.
//!
//! A single worker drives requests synchronously through a [`WorkerModel`]
//! against a real on-disk [`ModelRegistry`], so every transition in the
//! swap state machine is observable and replayable. The invariants under
//! test: a swap never drops or degrades a request, a corrupt candidate
//! never serves a byte, a kill mid pointer-flip leaves the old generation
//! both serving and durable, a rollback restores bit-identical rankings,
//! and the same fault schedule always replays the same transition trace.

#![allow(clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pup_ckpt::chaos::FaultPlan;
use pup_ckpt::registry::ModelRegistry;
use pup_ckpt::{Checkpoint, ConfigFingerprint, ParamBlob};
use pup_serve::{
    initiate_swap, wire_registry_promotion, Deadline, Fallback, GenScorerFactory, Request,
    Response, RollbackReason, ScoreError, Scorer, ServeConfig, ServiceShared, Source, SwapConfig,
    SwapController, SwapError, SwapOutcome, WorkerModel,
};
use pup_tensor::Matrix;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory per test (no tempfile crate offline).
fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pup-swap-{tag}-{}-{n}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const N_USERS: usize = 6;
const N_ITEMS: usize = 8;

fn sample_checkpoint(epoch: u64) -> Checkpoint {
    let emb = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 * 0.25 - 1.0 + epoch as f64);
    Checkpoint {
        epoch,
        lr_factor: 1.0,
        retries_used: 0,
        config: ConfigFingerprint {
            epochs: 10,
            batch_size: 4,
            negatives_per_positive: 1,
            seed: 42,
            lr_bits: 0.01f64.to_bits(),
            l2_bits: 1e-5f64.to_bits(),
            lr_decay: true,
        },
        epoch_losses: (0..epoch).map(|e| 0.7 - e as f64 * 0.01).collect(),
        order: vec![3, 0, 2, 1, 4],
        rng_state: [1, 2, 3, epoch + 1],
        params: vec![ParamBlob { name: "user.emb".to_string(), value: emb.clone() }],
        adam_t: epoch,
        adam_moments: vec![(emb.scale(0.01), emb.scale(0.001))],
    }
}

/// A deterministic scorer whose ranking depends only on the user — so two
/// generations agree perfectly (overlap 1.0) and clean swaps promote.
struct GenScorer {
    n_items: usize,
}

impl Scorer for GenScorer {
    fn name(&self) -> &str {
        "gen-scorer"
    }
    fn n_items(&self) -> usize {
        self.n_items
    }
    fn score(&self, user: usize) -> Result<Vec<f64>, ScoreError> {
        Ok((0..self.n_items).map(|i| ((i * 7 + user * 3) % self.n_items) as f64).collect())
    }
}

/// Factory that round-trips the generation through the registry: building
/// a scorer *requires* decoding the on-disk checkpoint, so corrupt bytes
/// can never become a scorer.
fn registry_factory(registry: &ModelRegistry) -> GenScorerFactory {
    let registry = registry.clone();
    Arc::new(move |gen| {
        registry.load(gen).map_err(|e| e.to_string())?;
        Ok(Box::new(GenScorer { n_items: N_ITEMS }) as Box<dyn Scorer>)
    })
}

fn make_shared(plan: FaultPlan, swap_cfg: SwapConfig) -> ServiceShared {
    let fallback = Fallback::from_train(N_USERS, N_ITEMS, &[(0, 1), (1, 2)]).expect("fallback");
    ServiceShared::with_swap(
        ServeConfig::default(),
        fallback,
        N_USERS,
        plan,
        SwapController::new(0, swap_cfg),
    )
}

fn swap_cfg(shadow_requests: u64) -> SwapConfig {
    SwapConfig { shadow_requests, min_overlap: 0.5, probe_users: 2 }
}

fn serve(model: &mut WorkerModel, shared: &ServiceShared, user: usize) -> Response {
    let mut deadline = Deadline::new(shared.cfg.deadline_ns);
    let ctx = pup_obs::trace::TraceContext::disabled();
    model.handle(shared, Request { user, k: 4 }, &mut deadline, &ctx).expect("request answered")
}

/// Publishes `n` generations built from the same ranking (epochs differ,
/// rankings agree). The first publish auto-promotes generation 0.
fn seeded_registry(dir: &Path, n: u64) -> ModelRegistry {
    let reg = ModelRegistry::open(dir).expect("open registry");
    for epoch in 1..=n {
        reg.publish(&sample_checkpoint(epoch)).expect("publish");
    }
    reg
}

#[test]
fn clean_swap_promotes_without_dropping_a_request() {
    let dir = scratch_dir("clean");
    let reg = seeded_registry(&dir, 2);
    let shared = make_shared(FaultPlan::none(), swap_cfg(3));
    wire_registry_promotion(&shared, reg.clone());
    let factory = registry_factory(&reg);
    let mut model = WorkerModel::build(&shared, &factory).expect("worker build");

    // Steady state on generation 0.
    let before = serve(&mut model, &shared, 0);
    assert_eq!(before.source, Source::Primary);
    assert_eq!(model.primary_gen(), 0);

    initiate_swap(&shared, &reg, &factory, 1).expect("swap initiates");
    assert_eq!(shared.swap.shadow_pending(), Some(1));

    // Every request during the shadow window is still a primary answer on
    // the old generation — nothing drops, nothing degrades.
    for user in 0..3 {
        let resp = serve(&mut model, &shared, user);
        assert_eq!(resp.source, Source::Primary);
    }
    assert_eq!(shared.swap.active_gen(), 1, "window filled: candidate promoted");
    assert_eq!(reg.current().expect("current"), Some(1), "CURRENT flipped durably");

    // The worker adopts the promoted candidate as primary — and keeps serving.
    let after = serve(&mut model, &shared, 0);
    assert_eq!(after.source, Source::Primary);
    assert_eq!(model.primary_gen(), 1);
    assert_eq!(after.items, before.items, "identical rankings across the swap");

    let trace = shared.swap.transitions();
    assert_eq!(trace.len(), 1);
    assert_eq!(trace[0].seq, 0);
    assert_eq!(trace[0].from_gen, 0);
    assert_eq!(trace[0].to_gen, 1);
    assert_eq!(trace[0].outcome, SwapOutcome::Promoted);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_candidate_never_serves_and_rolls_back_instantly() {
    let dir = scratch_dir("corrupt");
    let reg = seeded_registry(&dir, 2);
    let shared = make_shared(FaultPlan::none().with_swap_corruption([0]), swap_cfg(3));
    wire_registry_promotion(&shared, reg.clone());
    let factory = registry_factory(&reg);
    let mut model = WorkerModel::build(&shared, &factory).expect("worker build");

    let baseline: Vec<Response> = (0..N_USERS).map(|u| serve(&mut model, &shared, u)).collect();

    // The injected fault corrupts generation 1 on disk just before the
    // swap validates it — validation must catch it and roll back.
    let err = initiate_swap(&shared, &reg, &factory, 1).expect_err("validation rejects");
    assert!(matches!(err, SwapError::Validation { gen: 1, .. }), "got {err:?}");
    assert_eq!(shared.swap.active_gen(), 0, "serving generation untouched");
    assert_eq!(shared.swap.shadow_pending(), None, "no shadow window opened");
    assert_eq!(reg.current().expect("current"), Some(0));

    // Bit-identical answers after the rolled-back attempt.
    for (user, before) in baseline.iter().enumerate() {
        let after = serve(&mut model, &shared, user);
        assert_eq!(after.items, before.items, "user {user} ranking changed across rollback");
        assert_eq!(after.source, Source::Primary);
    }

    let trace = shared.swap.transitions();
    assert_eq!(trace.len(), 1);
    assert_eq!(trace[0].outcome, SwapOutcome::RolledBack(RollbackReason::ValidationFailed));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_mid_pointer_flip_keeps_old_generation_serving_and_durable() {
    let dir = scratch_dir("killflip");
    let reg = seeded_registry(&dir, 2);
    let shared = make_shared(FaultPlan::none().with_swap_kill_flips([0]), swap_cfg(2));
    wire_registry_promotion(&shared, reg.clone());
    let factory = registry_factory(&reg);
    let mut model = WorkerModel::build(&shared, &factory).expect("worker build");

    initiate_swap(&shared, &reg, &factory, 1).expect("swap initiates");
    for user in 0..2 {
        let resp = serve(&mut model, &shared, user);
        assert_eq!(resp.source, Source::Primary);
    }

    // The shadow window was clean, but the process "died" mid flip: the
    // staged pointer never renamed, so the old generation still serves.
    let trace = shared.swap.transitions();
    assert_eq!(trace.len(), 1);
    assert_eq!(trace[0].outcome, SwapOutcome::RolledBack(RollbackReason::KilledMidFlip));
    assert_eq!(shared.swap.active_gen(), 0);
    assert_eq!(reg.current().expect("current"), Some(0), "CURRENT still points at gen 0");
    assert!(dir.join("CURRENT.tmp").exists(), "the crash left its staged pointer behind");

    // "Restart": reopening the registry cleans the staged tmp and the
    // durable serving generation is still 0.
    let reopened = ModelRegistry::open(&dir).expect("reopen after crash");
    assert!(!dir.join("CURRENT.tmp").exists(), "stale staged pointer cleaned on open");
    assert_eq!(reopened.serving_generation().expect("serving").gen, 0);

    // And the in-memory side kept answering throughout.
    let resp = serve(&mut model, &shared, 3);
    assert_eq!(resp.source, Source::Primary);
    assert_eq!(model.primary_gen(), 0);

    // A retried swap (no fault left) completes the interrupted promotion.
    initiate_swap(&shared, &reg, &factory, 1).expect("retry initiates");
    for user in 0..2 {
        serve(&mut model, &shared, user);
    }
    assert_eq!(shared.swap.active_gen(), 1);
    assert_eq!(reg.current().expect("current"), Some(1));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn forced_shadow_divergence_rolls_back_with_identical_rankings() {
    let dir = scratch_dir("diverge");
    let reg = seeded_registry(&dir, 2);
    let shared = make_shared(FaultPlan::none().with_shadow_divergence([0]), swap_cfg(2));
    wire_registry_promotion(&shared, reg.clone());
    let factory = registry_factory(&reg);
    let mut model = WorkerModel::build(&shared, &factory).expect("worker build");

    let baseline: Vec<Response> = (0..N_USERS).map(|u| serve(&mut model, &shared, u)).collect();

    initiate_swap(&shared, &reg, &factory, 1).expect("swap initiates");
    for user in 0..2 {
        serve(&mut model, &shared, user);
    }

    let trace = shared.swap.transitions();
    assert_eq!(trace.len(), 1);
    assert_eq!(trace[0].outcome, SwapOutcome::RolledBack(RollbackReason::ShadowDivergence));
    assert_eq!(shared.swap.active_gen(), 0);
    assert_eq!(reg.current().expect("current"), Some(0));

    for (user, before) in baseline.iter().enumerate() {
        let after = serve(&mut model, &shared, user);
        assert_eq!(after.items, before.items, "user {user} ranking changed across rollback");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_mid_swap_dump_names_the_rolled_back_generation() {
    let dir = scratch_dir("killflip-dump");
    let flight_dir = dir.join("flight");
    let reg = seeded_registry(&dir, 2);
    let mut shared = make_shared(FaultPlan::none().with_swap_kill_flips([0]), swap_cfg(2));
    shared.enable_flight_recorder(pup_serve::PostMortem::new(flight_dir, 16));
    wire_registry_promotion(&shared, reg.clone());
    let factory = registry_factory(&reg);
    let mut model = WorkerModel::build(&shared, &factory).expect("worker build");

    initiate_swap(&shared, &reg, &factory, 1).expect("swap initiates");
    for user in 0..2 {
        serve(&mut model, &shared, user);
    }
    assert_eq!(
        shared.swap.transitions()[0].outcome,
        SwapOutcome::RolledBack(RollbackReason::KilledMidFlip)
    );

    // The trigger poll a worker loop runs after each completed request.
    let postmortem = shared.postmortem.as_ref().expect("recorder attached");
    postmortem.poll(&shared);

    let dumps = postmortem.dumped_paths();
    assert_eq!(dumps.len(), 1, "exactly one rollback, exactly one dump: {dumps:?}");
    assert!(dumps[0].ends_with("flight-0-swap-rollback.jsonl"), "got {:?}", dumps[0]);
    let text = fs::read_to_string(&dumps[0]).expect("dump readable");
    let meta = text.lines().next().expect("meta line");
    assert!(meta.contains("\"reason\":\"swap-rollback\""), "meta: {meta}");
    assert!(
        meta.contains("gen 1 rolled back (killed-mid-flip); gen 0 keeps serving"),
        "the dump must name the rolled-back generation: {meta}"
    );

    // Polling again without a new rollback must not dump again.
    postmortem.poll(&shared);
    assert_eq!(postmortem.dump_count(), 1);
    fs::remove_dir_all(&dir).ok();
}

/// Runs a fixed three-attempt swap schedule under the given fault plan and
/// returns the resolved transition trace.
fn run_schedule(tag: &str, plan: FaultPlan) -> Vec<pup_serve::SwapTransition> {
    let dir = scratch_dir(tag);
    let reg = seeded_registry(&dir, 3);
    let shared = make_shared(plan, swap_cfg(2));
    wire_registry_promotion(&shared, reg.clone());
    let factory = registry_factory(&reg);
    let mut model = WorkerModel::build(&shared, &factory).expect("worker build");

    // Attempt 0: swap to gen 1 (corrupted by the plan → instant rollback).
    let _ = initiate_swap(&shared, &reg, &factory, 1);
    for user in 0..2 {
        serve(&mut model, &shared, user);
    }
    // Attempt 1: swap to gen 2 (forced divergence → rollback after window).
    let _ = initiate_swap(&shared, &reg, &factory, 2);
    for user in 0..2 {
        serve(&mut model, &shared, user);
    }
    // Attempt 2: swap to gen 2 again (clean → promoted).
    let _ = initiate_swap(&shared, &reg, &factory, 2);
    for user in 0..2 {
        serve(&mut model, &shared, user);
    }
    let trace = shared.swap.transitions();
    fs::remove_dir_all(&dir).ok();
    trace
}

#[test]
fn same_fault_schedule_replays_identical_transition_traces() {
    let plan = || FaultPlan::none().with_swap_corruption([0]).with_shadow_divergence([1]);
    let first = run_schedule("replay-a", plan());
    let second = run_schedule("replay-b", plan());
    assert_eq!(first, second, "same-seed schedules must replay the same trace");

    assert_eq!(first.len(), 3);
    assert_eq!(first[0].outcome, SwapOutcome::RolledBack(RollbackReason::ValidationFailed));
    assert_eq!(first[1].outcome, SwapOutcome::RolledBack(RollbackReason::ShadowDivergence));
    assert_eq!(first[2].outcome, SwapOutcome::Promoted);
    assert_eq!((first[2].from_gen, first[2].to_gen), (0, 2));
}

// --- the registry check beside the candidate's build ------------------------

/// A factory that builds without reading the registry, or fails with a
/// fixed message of its own.
fn detached_factory(fail_with: Option<&'static str>) -> GenScorerFactory {
    Arc::new(move |_gen| match fail_with {
        Some(detail) => Err(detail.to_string()),
        None => Ok(Box::new(GenScorer { n_items: N_ITEMS }) as Box<dyn Scorer>),
    })
}

/// Runs one swap attempt to generation 1, with `factory` building the
/// candidate, and returns its error, after checking that the attempt left
/// generation 0 serving, durable, and without a shadow window, with one
/// rejection in the trace.
fn rejected_swap(tag: &str, plan: FaultPlan, factory: &GenScorerFactory) -> SwapError {
    let dir = scratch_dir(tag);
    let reg = seeded_registry(&dir, 2);
    let shared = make_shared(plan, swap_cfg(3));
    wire_registry_promotion(&shared, reg.clone());
    let mut model = WorkerModel::build(&shared, &detached_factory(None)).expect("worker build");
    let err = initiate_swap(&shared, &reg, factory, 1).expect_err("swap rejected");
    assert_eq!(shared.swap.shadow_pending(), None, "{tag}: no shadow window opened");
    assert_eq!(shared.swap.active_gen(), 0, "{tag}: serving generation untouched");
    assert_eq!(reg.current().expect("current"), Some(0), "{tag}: CURRENT did not move");
    let trace = shared.swap.transitions();
    assert_eq!(trace.len(), 1, "{tag}: one rejection recorded");
    assert_eq!(trace[0].outcome, SwapOutcome::RolledBack(RollbackReason::ValidationFailed));
    assert_eq!(shared.swap.rollbacks(), 1, "{tag}");
    assert_eq!(serve(&mut model, &shared, 0).source, Source::Primary);
    // The damage (if any) is still on disk: the registry's own verdict on
    // the candidate, for the caller to compare against.
    if let Err(e) = reg.validate(1) {
        assert_eq!(err, SwapError::Validation { gen: 1, detail: e.to_string() }, "{tag}");
    }
    fs::remove_dir_all(&dir).ok();
    err
}

#[test]
fn corrupt_candidate_is_rejected_even_when_the_build_never_reads_it() {
    let plan = FaultPlan::none().with_swap_corruption([0]);
    let err = rejected_swap("detached-corrupt", plan, &detached_factory(None));
    assert!(matches!(&err, SwapError::Validation { gen: 1, .. }), "got {err:?}");
}

#[test]
fn a_failed_check_and_a_failed_build_report_the_check() {
    let plan = FaultPlan::none().with_swap_corruption([0]);
    let err = rejected_swap("both-fail", plan, &detached_factory(Some("build refused")));
    let SwapError::Validation { gen: 1, detail } = &err else { panic!("got {err:?}") };
    assert_ne!(detail, "build refused", "the registry check's detail wins");
}

#[test]
fn a_failed_build_alone_reports_the_build() {
    let err =
        rejected_swap("build-fails", FaultPlan::none(), &detached_factory(Some("build refused")));
    assert_eq!(err, SwapError::Validation { gen: 1, detail: "build refused".to_string() });
}
