//! Shared plumbing for the experiment binaries.
//!
//! Every binary reads two optional environment variables so CI can run the
//! fast default while a full reproduction cranks them up:
//!
//! - `PUP_SCALE`  — dataset scale factor (default 0.04; 1.0 ≈ paper size).
//! - `PUP_EPOCHS` — training epochs (default 30; paper used 200).

use pup_models::TrainConfig;
use pup_recsys::{FitConfig, ModelKind, Pipeline};

/// Experiment-wide knobs resolved from the environment.
#[derive(Clone, Debug)]
pub struct ExperimentEnv {
    /// Dataset scale factor.
    pub scale: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Seed shared by generators and trainers.
    pub seed: u64,
}

impl ExperimentEnv {
    /// Reads `PUP_SCALE` / `PUP_EPOCHS` / `PUP_SEED` with defaults suited to
    /// a laptop run of every experiment.
    pub fn from_env() -> Self {
        Self {
            scale: read_env("PUP_SCALE", 0.04),
            // pup-lint: allow(as-cast-truncation) — epoch count env knob; small by construction
            epochs: read_env("PUP_EPOCHS", 30.0) as usize,
            seed: read_env("PUP_SEED", 2020.0) as u64,
        }
    }

    /// The [`FitConfig`] all experiment binaries share.
    pub fn fit_config(&self) -> FitConfig {
        FitConfig {
            dim: 64,
            train: TrainConfig { epochs: self.epochs, seed: self.seed, ..Default::default() },
            ..Default::default()
        }
    }
}

/// PUP hyperparameters selected by grid search on the synthetic substrate
/// (α ∈ {1,2,3} × allocation ∈ {56/8, 48/16, 32/32, 16/48}). The paper's
/// grid search on its datasets selected 56/8 (Table V); on our generator the
/// category-dependent price signal is stronger, so the category branch earns
/// a larger slice and weight. `PupConfig::default()` remains the paper's
/// published setting.
pub fn tuned_pup() -> pup_models::PupConfig {
    pup_models::PupConfig { alpha: 2.0, global_dim: 32, category_dim: 32, ..Default::default() }
}

fn read_env(key: &str, default: f64) -> f64 {
    match std::env::var(key) {
        Ok(v) => v.parse().unwrap_or_else(|_| panic!("{key} must be numeric, got {v:?}")),
        Err(_) => default,
    }
}

/// Fits a model and prints a one-line progress note to stderr.
pub fn fit_verbose(
    pipeline: &Pipeline,
    kind: ModelKind,
    cfg: &FitConfig,
) -> Box<dyn pup_recsys::prelude::Recommender> {
    let name = kind.name();
    // pup-lint: allow(raw-print-in-lib) — progress note is this fn's contract.
    eprintln!("  training {name} ...");
    let t = std::time::Instant::now();
    let model = pipeline.fit(kind, cfg);
    // pup-lint: allow(raw-print-in-lib)
    eprintln!("  trained {name} in {:.1}s", t.elapsed().as_secs_f64());
    model
}

/// Renders a standard experiment banner.
pub fn banner(title: &str, env: &ExperimentEnv) {
    // pup-lint: allow(raw-print-in-lib) — the banner's whole job is stdout.
    println!("== {title} ==");
    // pup-lint: allow(raw-print-in-lib)
    println!(
        "(scale={}, epochs={}, seed={}; set PUP_SCALE / PUP_EPOCHS / PUP_SEED to change)",
        env.scale, env.epochs, env.seed
    );
    // pup-lint: allow(raw-print-in-lib)
    println!();
}

pub use pup_obs::bench::{
    diff_last_two, read_bench_trajectory, read_bench_trajectory_str, BenchCase, BenchEntry,
    BenchTrajectory, CaseDiff,
};

/// Appends finished benchmark cases to `BENCH_<target>.json`.
///
/// The file holds an append-only trajectory (`pup-bench/2`): one entry per
/// bench run, newest last, so regressions are visible as history rather
/// than silently overwritten.
///
/// ```json
/// {
///   "schema": "pup-bench/2",
///   "target": "training",
///   "entries": [
///     {"seq": 0,
///      "cases": [{"group": "bpr_epoch", "name": "bpr_mf",
///                 "median_ns": 12345678, "min_ns": 11111111,
///                 "max_ns": 14444444, "samples": 10}]}
///   ]
/// }
/// ```
///
/// Cases appear in run order; all times are wall-clock nanoseconds for one
/// invocation of the bench routine (median / min / max over `samples` timed
/// runs, warm-up excluded). The file lands in `$PUP_BENCH_OUT` if set,
/// otherwise the current directory, and is written atomically (tmp + rename) so
/// a crashed bench run never leaves a truncated report. Returns the path
/// written.
pub fn write_bench_json(
    target: &str,
    cases: &[criterion::CaseResult],
) -> std::io::Result<std::path::PathBuf> {
    use pup_obs::json::Value;
    use std::io::Write;

    let dir = std::env::var("PUP_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{target}.json"));

    // Prior history stays; this run appends. An unreadable or foreign file is
    // replaced rather than corrupted further.
    let mut entries = match std::fs::read_to_string(&path) {
        Ok(text) => read_bench_trajectory_str(&text).map(|t| t.entries).unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    let seq = entries.len() as u64;
    entries.push(BenchEntry {
        seq,
        cases: cases
            .iter()
            .map(|c| BenchCase {
                group: c.group.clone(),
                name: c.label.clone(),
                median_ns: u64::try_from(c.median_ns).unwrap_or(u64::MAX),
                min_ns: u64::try_from(c.min_ns).unwrap_or(u64::MAX),
                max_ns: u64::try_from(c.max_ns).unwrap_or(u64::MAX),
                samples: c.samples as u64,
            })
            .collect(),
    });

    let entry_objs: Vec<Value> = entries
        .iter()
        .map(|e| {
            let case_objs: Vec<Value> = e
                .cases
                .iter()
                .map(|c| {
                    Value::Obj(vec![
                        ("group".to_string(), Value::Str(c.group.clone())),
                        ("name".to_string(), Value::Str(c.name.clone())),
                        ("median_ns".to_string(), Value::num(c.median_ns as f64)),
                        ("min_ns".to_string(), Value::num(c.min_ns as f64)),
                        ("max_ns".to_string(), Value::num(c.max_ns as f64)),
                        ("samples".to_string(), Value::num(c.samples as f64)),
                    ])
                })
                .collect();
            Value::Obj(vec![
                ("seq".to_string(), Value::num(e.seq as f64)),
                ("cases".to_string(), Value::Arr(case_objs)),
            ])
        })
        .collect();
    let doc = Value::Obj(vec![
        ("schema".to_string(), Value::Str("pup-bench/2".to_string())),
        ("target".to_string(), Value::Str(target.to_string())),
        ("entries".to_string(), Value::Arr(entry_objs)),
    ]);

    let tmp = dir.join(format!("BENCH_{target}.json.tmp"));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(doc.render().as_bytes())?;
    f.write_all(b"\n")?;
    f.sync_all()?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(median_ns: u128) -> criterion::CaseResult {
        criterion::CaseResult {
            group: "g".to_string(),
            label: "case_a".to_string(),
            median_ns,
            min_ns: median_ns - 500,
            max_ns: median_ns + 500,
            samples: 10,
        }
    }

    #[test]
    fn bench_json_appends_a_trajectory_entry_per_run() {
        let dir = std::env::temp_dir().join(format!("pup-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        // No other test in this binary touches PUP_BENCH_OUT, so setting it
        // here is safe even under the parallel test runner.
        std::env::set_var("PUP_BENCH_OUT", &dir);
        let path = write_bench_json("harness_test", &[case(1_500)]).expect("first write");
        let path2 = write_bench_json("harness_test", &[case(1_800)]).expect("second write");
        std::env::remove_var("PUP_BENCH_OUT");
        assert_eq!(path, path2, "both runs land in the same trajectory file");
        assert_eq!(path.file_name().and_then(|n| n.to_str()), Some("BENCH_harness_test.json"));

        let text = std::fs::read_to_string(&path).expect("read back");
        let doc = pup_obs::json::Value::parse(&text).expect("valid json");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("pup-bench/2"));

        let traj = read_bench_trajectory(&path).expect("trajectory parses");
        assert_eq!(traj.target, "harness_test");
        assert_eq!(traj.entries.len(), 2, "second run appended, not overwrote");
        assert_eq!(traj.entries[0].seq, 0);
        assert_eq!(traj.entries[1].seq, 1);
        assert_eq!(traj.entries[0].cases[0].median_ns, 1_500);
        assert_eq!(traj.entries[1].cases[0].median_ns, 1_800);

        let diffs = diff_last_two(&traj).expect("two entries diff");
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].before_ns, Some(1_500));
        assert_eq!(diffs[0].after_ns, Some(1_800));
        assert!(diffs[0].regressed(0.10), "20% slower must trip a 10% threshold");
        assert!(!diffs[0].regressed(0.25), "20% slower passes a 25% threshold");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_entry_trajectory_has_nothing_to_diff() {
        let text = r#"{"schema": "pup-bench/2", "target": "fresh", "entries": [
            {"seq": 0, "cases": [{"group": "g", "name": "case_a", "median_ns": 1000,
             "min_ns": 900, "max_ns": 1100, "samples": 5}]}]}"#;
        let traj = read_bench_trajectory_str(text).expect("v2 parses");
        assert_eq!(traj.target, "fresh");
        assert_eq!(traj.entries.len(), 1);
        assert_eq!(traj.entries[0].seq, 0);
        assert_eq!(traj.entries[0].cases[0].median_ns, 1_000);
        assert!(
            diff_last_two(&traj).is_err(),
            "one entry has nothing to diff against; the error says to re-run"
        );
    }

    #[test]
    fn env_defaults_apply() {
        // Note: assumes the test runner does not set PUP_* variables.
        let e = ExperimentEnv::from_env();
        assert!(e.scale > 0.0);
        assert!(e.epochs > 0);
        let cfg = e.fit_config();
        assert_eq!(cfg.dim, 64);
        assert_eq!(cfg.train.epochs, e.epochs);
    }
}
