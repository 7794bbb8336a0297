//! `pup-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! pup-perfbench fixture   --workload W --seed N --fixtures DIR
//! pup-perfbench run       --workload W --seed N --seconds S --trace 0|1 --fixtures DIR
//! pup-perfbench selfcheck --seed N --fixtures DIR
//! ```
//!
//! `perfbench/run.py` builds this binary, makes the fixture in one process
//! and runs the workload in another, so a run's peak RSS is the
//! workload's alone. See `perfbench/README.md` for the workloads, metrics
//! and the layer each per-layer metric belongs to.

mod client;
mod fixture;
mod serve;
mod stats;
mod train;
mod workloads;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Workload;

/// Parsed command line.
struct Args {
    cmd: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fixtures: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().ok_or("missing subcommand (fixture | run | selfcheck)")?;
    let mut flags = HashMap::new();
    while let Some(flag) = argv.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = argv.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| flags.get(name).cloned();
    let num = |name: &str, default: f64| -> Result<f64, String> {
        get(name)
            .map_or(Ok(default), |v| v.parse().map_err(|_| format!("--{name}: bad number {v:?}")))
    };
    Ok(Args {
        cmd,
        workload: get("workload").unwrap_or_default(),
        seed: num("seed", 1.0)? as u64,
        seconds: num("seconds", 10.0)?,
        trace: num("trace", 0.0)? != 0.0,
        fixtures: PathBuf::from(get("fixtures").ok_or("--fixtures is required")?),
    })
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    match args.cmd.as_str() {
        "fixture" => {
            let w = workload(&args.workload)?;
            let dir = fixture::ensure(&args.fixtures, w, workloads::CATALOG_SEED)?;
            println!("{}", dir.display());
            Ok(true)
        }
        "run" => {
            let w = workload(&args.workload)?;
            let dir = fixture::dir(&args.fixtures, w, workloads::CATALOG_SEED);
            if !dir.join("READY").exists() {
                return Err(format!("fixture {} is missing; run `fixture` first", dir.display()));
            }
            let result = match w {
                Workload::ServeScan => serve::run(&dir, args.seed, args.seconds, args.trace)?,
                Workload::TrainEval => train::run(&dir, args.seed, args.trace)?,
            };
            println!("{}", result.record_line());
            println!("{}", result.final_line());
            Ok(result.correct)
        }
        "selfcheck" => selfcheck(&args),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// Same seed, same inputs: the dataset, the arrival schedule and the user
/// sequence must repeat exactly, and the BPR loss sequence bit for bit.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let w = Workload::TrainEval;
    let a = fixture::ensure(&args.fixtures.join("selfcheck-a"), w, args.seed)?;
    let b = fixture::ensure(&args.fixtures.join("selfcheck-b"), w, args.seed)?;
    for file in ["items.csv", "interactions.csv"] {
        let same = std::fs::read(a.join(file)).ok() == std::fs::read(b.join(file)).ok();
        println!("selfcheck train-eval {file}: {}", if same { "identical" } else { "DIFFERS" });
        ok &= same;
    }
    let plan = |seed| client::schedule(seed, 5000, 500.0, 1000, workloads::ZIPF);
    let same = plan(args.seed) == plan(args.seed);
    let differs = plan(args.seed) != plan(args.seed + 1);
    println!("selfcheck schedule: same seed identical {same}, next seed differs {differs}");
    ok &= same && differs;
    let dir = fixture::ensure(&args.fixtures, w, workloads::CATALOG_SEED)?;
    let first = train::loss_sequence(&dir, args.seed, 2)?;
    let second = train::loss_sequence(&dir, args.seed, 2)?;
    let same = first.iter().map(|l| l.to_bits()).eq(second.iter().map(|l| l.to_bits()));
    println!("selfcheck train-eval losses {first:?}: bit-identical {same}");
    ok &= same;
    let _ = std::fs::remove_dir_all(args.fixtures.join("selfcheck-a"));
    let _ = std::fs::remove_dir_all(args.fixtures.join("selfcheck-b"));
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: output check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
