//! The benchmark's two workloads and their fixed constants.
//!
//! Every rate, count and duration below is a constant of the benchmark:
//! nothing is recomputed from a run's own measurements, so two commits are
//! always driven by the same load.

use crate::stats::{metric, Metric};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    /// `/recommend` over loopback HTTP on the scale-1.0 catalog, then hot
    /// swaps under the same load.
    ServeScan,
    /// BPR training plus full-ranking evaluation on the scale-0.1 catalog.
    TrainEval,
}

impl Workload {
    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "serve-scan" => Some(Self::ServeScan),
            "train-eval" => Some(Self::TrainEval),
            _ => None,
        }
    }

    /// `yelp_like` catalog scale of the workload's fixture.
    pub fn scale(self) -> f64 {
        match self {
            Self::ServeScan => SCAN_SCALE,
            Self::TrainEval => TRAIN_SCALE,
        }
    }

    /// Fixture cache key.
    pub fn fixture_key(self) -> String {
        match self {
            Self::ServeScan => format!("serve-yelp{SCAN_SCALE}"),
            Self::TrainEval => format!("train-yelp{TRAIN_SCALE}"),
        }
    }
}

/// Seed of every fixture catalog and checkpoint run. Generating the
/// scale-1.0 catalog takes about a minute, so catalogs are not redrawn per
/// run: `--seed` drives everything a run samples (arrival times, users,
/// swap timing, BPR shuffling and negatives), and the catalog stays fixed.
pub const CATALOG_SEED: u64 = 1;
/// Top-K size of every request and of the evaluation latency pass.
pub const K: usize = 20;
/// Zipf exponent of the user popularity skew.
pub const ZIPF: f64 = 1.0;

/// serve-scan: catalog scale (about 15k items and 20k users).
pub const SCAN_SCALE: f64 = 1.0;
/// serve-scan: engine worker threads.
pub const SCAN_WORKERS: usize = 2;
/// serve-scan: client connections (and client threads).
pub const CLIENTS: usize = 2;
/// serve-scan: gateway connection workers.
pub const MAX_CONNS: usize = 2;
/// serve-scan: fixed Poisson rate of every phase (requests per second).
pub const SCAN_RATE_RPS: f64 = 100.0;
/// serve-scan: engine per-request deadline (ms). A swap stalls a worker
/// while it builds its shadow replica; a long budget turns that stall into
/// latency instead of deadline rejections, so no request fails.
pub const SCAN_DEADLINE_MS: f64 = 10_000.0;
/// serve-scan: unmeasured warm-up before the latency phase (seconds).
pub const WARMUP_S: f64 = 0.4;
/// serve-scan: set-ups timed per run; `setup_s` is their median.
pub const SCAN_SETUP_REPEATS: usize = 7;
/// serve-scan: hot swaps per run, alternating between the two registry
/// generations; `model_update_s` is the median swap time.
pub const SCAN_SWAPS: usize = 9;
/// serve-scan: requests sent between the end of one swap and the next.
pub const SWAP_GAP: usize = 16;
/// A run is invalid when the generator's own lateness p99 in a latency
/// phase exceeds this (ms).
pub const MAX_GEN_LATENESS_MS: f64 = 20.0;

/// train-eval: catalog scale.
pub const TRAIN_SCALE: f64 = 0.1;
/// train-eval: BPR epochs trained per run.
pub const TRAIN_EPOCHS: usize = 32;
/// train-eval: mini-batch size (the paper's 1024).
pub const TRAIN_BATCH: usize = 1024;
/// train-eval: set-ups timed per run; `setup_s` is their median. One
/// set-up takes about 50 ms, so one alone is at the mercy of a single
/// scheduler hiccup.
pub const TRAIN_SETUP_REPEATS: usize = 61;
/// train-eval: lowest acceptable Recall@20 after training, the quality
/// guard against numeric shortcuts (ItemPop-level ranking fails it).
pub const MIN_RECALL_AT_20: f64 = 0.05;

/// Every per-layer metric a traced run prints, in `BENCHMARK.json` order,
/// with its unit. A layer the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.parse_us", "us"),
    ("net.write_us", "us"),
    ("net.accept_self_us", "us"),
    ("net.reconnects", "count"),
    ("net.non_2xx", "count"),
    ("queue.wait_us_p50", "us"),
    ("queue.wait_us_p99", "us"),
    ("queue.max_depth", "count"),
    ("queue.shed", "count"),
    ("score.us_p50", "us"),
    ("score.us_p99", "us"),
    ("rank.us_p50", "us"),
    ("rank.us_p99", "us"),
    ("respond.us_p50", "us"),
    ("fallback.answers", "count"),
    ("deadline.rejections", "count"),
    ("swap.initiate_ms", "ms"),
    ("swap.promote_ms", "ms"),
    ("swap.replica_build_ms", "ms"),
    ("swap.replica_builds", "count"),
    ("swap.shadow_scored", "count"),
    ("ckpt.load_ms", "ms"),
    ("model.restore_ms", "ms"),
    ("data.load_ms", "ms"),
    ("graph.build_ms", "ms"),
    ("sampler.draws", "count"),
    ("sampler.rejections", "count"),
    ("fwd.spmm_ms", "ms"),
    ("fwd.tanh_ms", "ms"),
    ("fwd.dropout_ms", "ms"),
    ("fwd.gather_rows_ms", "ms"),
    ("fwd.decoder_ms", "ms"),
    ("bwd.spmm_ms", "ms"),
    ("bwd.gather_rows_ms", "ms"),
    ("bwd.other_ms", "ms"),
    ("opt.adam_step_ms", "ms"),
    ("eval.score_items_us", "us"),
    ("eval.rank_us", "us"),
    ("residual_share", "ratio"),
    ("trace_overhead_share", "ratio"),
    ("gen.lateness_ms_p99", "ms"),
];

/// Orders `measured` as [`PER_LAYER`], filling layers the workload did
/// not run with 0.
pub fn per_layer(measured: Vec<Metric>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
            metric(name, unit, value)
        })
        .collect()
}
