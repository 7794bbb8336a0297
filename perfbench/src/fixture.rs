//! Seeded fixtures: a `pup-data` dataset on disk, plus (for serving
//! workloads) a model registry holding two generations of one short,
//! large-batch PUP training run.
//!
//! A fixture is a pure function of its key and catalog seed and is built
//! once per checkout, in its own process, before the measured run starts; building
//! it is never part of `setup_s`.

use std::fs;
use std::path::{Path, PathBuf};

use pup_ckpt::registry::ModelRegistry;
use pup_data::Quantization;
use pup_models::{BprTrainer, Pup, PupConfig, TrainConfig};
use pup_recsys::{FitConfig, ModelKind, Pipeline};

use crate::workloads::Workload;

/// Price levels of the `yelp_like` catalogs.
const PRICE_LEVELS: usize = 4;
/// Training pairs the serving checkpoints are fitted on: a short run, so
/// building a scale-1.0 fixture takes seconds rather than minutes.
const CKPT_TRAIN_PAIRS: usize = 8192;
/// Mini-batch of the checkpoint run.
const CKPT_BATCH: usize = 4096;
/// Epochs after which the two registry generations are published.
const CKPT_EPOCHS: [usize; 2] = [1, 3];

/// The model every workload trains and serves.
pub fn pup_kind() -> ModelKind {
    ModelKind::Pup(PupConfig::default())
}

/// Fit settings shared by the fixture run and every restore.
pub fn fit_config() -> FitConfig {
    FitConfig::default()
}

/// The fixture directory for `workload` and `seed` under `root`.
pub fn dir(root: &Path, workload: Workload, seed: u64) -> PathBuf {
    root.join(format!("{}-s{seed}", workload.fixture_key()))
}

/// Builds the fixture unless a complete one is already cached.
pub fn ensure(root: &Path, workload: Workload, seed: u64) -> Result<PathBuf, String> {
    let out = dir(root, workload, seed);
    if out.join("READY").exists() {
        return Ok(out);
    }
    let tmp = sibling(&out, "tmp");
    let _ = fs::remove_dir_all(&tmp);
    fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let scale = workload.scale();
    let t = std::time::Instant::now();
    let synth = pup_data::synthetic::yelp_like(scale, seed);
    eprintln!("fixture: generated the scale-{scale} catalog in {:.1} s", t.elapsed().as_secs_f64());
    pup_data::io::save_dataset(&synth.dataset, None, &items_path(&tmp), &inter_path(&tmp))
        .map_err(|e| format!("saving dataset: {e}"))?;
    if workload == Workload::ServeScan {
        let t = std::time::Instant::now();
        let pipeline = load_pipeline(&tmp)?;
        publish_generations(&pipeline, &tmp.join("registry"), seed)?;
        eprintln!(
            "fixture: trained and published checkpoints in {:.1} s",
            t.elapsed().as_secs_f64()
        );
    }
    fs::write(tmp.join("READY"), b"ok").map_err(|e| e.to_string())?;
    let _ = fs::remove_dir_all(&out);
    fs::rename(&tmp, &out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(out)
}

/// `<path>.<tag><pid>`: a per-process sibling of `path`.
fn sibling(path: &Path, tag: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{tag}{}", std::process::id()));
    path.with_file_name(name)
}

fn items_path(dir: &Path) -> PathBuf {
    dir.join("items.csv")
}

fn inter_path(dir: &Path) -> PathBuf {
    dir.join("interactions.csv")
}

/// Loads the fixture's dataset and applies the paper's temporal split —
/// the same public path `pup serve` takes.
pub fn load_pipeline(dir: &Path) -> Result<Pipeline, String> {
    let (dataset, _maps) = pup_data::io::load_dataset(
        &items_path(dir),
        &inter_path(dir),
        PRICE_LEVELS,
        Quantization::Uniform,
    )
    .map_err(|e| format!("loading dataset from {}: {e}", dir.display()))?;
    Ok(Pipeline::new(dataset))
}

/// Trains PUP briefly on a slice of the training pairs and publishes two
/// checkpoints of the run as registry generations 0 (CURRENT) and 1.
fn publish_generations(pipeline: &Pipeline, registry_dir: &Path, seed: u64) -> Result<(), String> {
    let fit = fit_config();
    let data = pipeline.train_data();
    let pup_cfg = PupConfig { dropout: fit.dropout, seed: fit.seed, ..PupConfig::default() };
    let mut model = Pup::new(&data, pup_cfg);
    let pairs = &data.train[..data.train.len().min(CKPT_TRAIN_PAIRS)];
    let train_cfg = TrainConfig {
        epochs: CKPT_EPOCHS[1],
        batch_size: CKPT_BATCH,
        lr_decay: false,
        seed,
        ..TrainConfig::default()
    };
    let mut trainer = BprTrainer::new(&model, data.n_users, data.n_items, pairs, &train_cfg);
    let registry = ModelRegistry::open(registry_dir).map_err(|e| e.to_string())?;
    for epoch in 1..=CKPT_EPOCHS[1] {
        trainer.run_epoch(&mut model).map_err(|e| format!("fixture training: {e}"))?;
        if CKPT_EPOCHS.contains(&epoch) {
            registry.publish(&trainer.checkpoint(&model)).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// A private copy of a fixture's registry for one run: swaps flip its
/// `CURRENT` pointer, and the cached fixture must stay as built.
pub struct RunRegistry {
    /// The copied registry directory.
    pub dir: PathBuf,
}

impl RunRegistry {
    /// Copies `fixture/registry` into a fresh per-process directory.
    pub fn copy_from(fixture: &Path) -> Result<Self, String> {
        let src = fixture.join("registry");
        let dir = sibling(fixture, "run");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let entries = fs::read_dir(&src).map_err(|e| format!("{}: {e}", src.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| e.to_string())?;
            fs::copy(entry.path(), dir.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
        Ok(Self { dir })
    }
}

impl Drop for RunRegistry {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}
