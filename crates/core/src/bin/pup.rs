//! `pup` — command-line interface to the PUP reproduction.
//!
//! ```text
//! pup generate  --preset yelp|beibei|amazon --scale 0.02 --seed 7 --out DIR
//! pup evaluate  --items items.csv --interactions interactions.csv
//!               [--model pup|itempop|bprmf|padq|fm|deepfm|gcmc|ngcf]
//!               [--epochs 30] [--levels 10] [--rank-quantize] [--k 50,100]
//!               [--checkpoint-dir DIR] [--resume]
//! pup recommend --items items.csv --interactions interactions.csv
//!               --user USER_ID [-k 10] [--epochs 30] [--levels 10]
//!               [--checkpoint-dir DIR] [--model NAME]
//! pup serve-bench --items items.csv --interactions interactions.csv
//!               (--checkpoint-dir DIR | --registry DIR) [--model NAME]
//!               [--requests N] [--clients N] [--workers N]
//!               [--fault-errors SPEC] [--fault-spikes SPEC]
//!               [--swap-at N] [--shadow K] [--swap-fault KIND]
//!               [--min-availability F]
//! pup serve     --items items.csv --interactions interactions.csv
//!               (--checkpoint-dir DIR | --registry DIR) [--model NAME]
//!               [--addr 127.0.0.1:0] [--addr-file PATH] [--api-keys SPEC]
//!               [--max-conns N] [--net-backlog N] [--idle-ms F]
//!               [--keep-alive N] [--max-requests N]
//! pup net-bench --items items.csv --interactions interactions.csv
//!               (--checkpoint-dir DIR | --registry DIR) [--model NAME]
//!               [--requests N] [--clients N] [--mean-gap-us F] [--burst N]
//!               [--zipf F] [--slow-every N] [--abort-every N]
//!               [--api-keys SPEC] [--api-key KEY] [--min-availability F]
//! pup registry  ls|publish|promote|rollback --registry DIR
//!               [--gen N] [--checkpoint-dir DIR]
//! pup report-telemetry run.jsonl [--top 10]
//! ```
//!
//! `generate` writes a synthetic dataset as the two-CSV format of
//! `pup_data::io`; `evaluate` trains a model on a temporal 60/20/20 split
//! and prints Recall/NDCG; `recommend` prints top items with their prices,
//! either training in-process or restoring a trained model instantly from a
//! `--checkpoint-dir`; `serve-bench` drives the fault-tolerant scoring
//! service (`pup-serve`) with closed-loop load and an optional injected
//! fault schedule, then prints the availability/latency/breaker report.
//! `evaluate --telemetry FILE` additionally records a structured telemetry
//! trace (spans, per-op timings, training metrics) that `report-telemetry`
//! renders as a human-readable report.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex, PoisonError};

use pup_data::io::{load_dataset, save_dataset, IdMaps};
use pup_data::synthetic::{amazon_like, beibei_like, yelp_like};
use pup_data::Quantization;
use pup_models::{Candidates, Shortlist};
use pup_recsys::prelude::*;
use pup_recsys::{FitConfig, ModelKind, Pipeline};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match run(cmd, rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(cmd: &str, rest: &[String]) -> Result<(), String> {
    match cmd {
        // These take a positional FILE argument, which `parse_flags`
        // rejects by design.
        "report-telemetry" => cmd_report_telemetry(rest),
        "slo-report" => cmd_slo_report(rest),
        "bench-diff" => cmd_bench_diff(rest),
        // `registry` takes a positional ACTION before its flags.
        "registry" => match rest.split_first() {
            None => Err("usage: pup registry <ls|publish|promote|rollback> --registry DIR".into()),
            Some((action, rest)) => cmd_registry(action, &parse_flags(rest)?),
        },
        _ => {
            let flags = parse_flags(rest).map_err(|e| format!("{e}\n\n{USAGE}"))?;
            match cmd {
                "generate" => cmd_generate(&flags),
                "evaluate" => cmd_evaluate(&flags),
                "recommend" => cmd_recommend(&flags),
                "serve-bench" => cmd_serve_bench(&flags),
                "serve" => cmd_serve(&flags),
                "net-bench" => cmd_net_bench(&flags),
                "help" | "--help" | "-h" => {
                    println!("{USAGE}");
                    Ok(())
                }
                other => Err(format!("unknown command {other:?}")),
            }
        }
    }
}

const USAGE: &str = "pup — price-aware recommendation (PUP, ICDE 2020)

USAGE:
  pup generate  --preset yelp|beibei|amazon [--scale F] [--seed N] --out DIR
  pup evaluate  --items FILE --interactions FILE [--model NAME] [--epochs N]
                [--levels N] [--rank-quantize] [--k LIST]
                [--checkpoint-dir DIR] [--resume] [--telemetry FILE]
  pup recommend --items FILE --interactions FILE --user ID [-k N | --top N]
                [--epochs N] [--levels N] [--checkpoint-dir DIR] [--model NAME]
  pup serve-bench --items FILE --interactions FILE
                (--checkpoint-dir DIR | --registry DIR)
                [--model NAME] [--requests N] [--clients N] [--workers N]
                [--queue N] [--deadline-ms F] [--retries N] [--seed N]
                [-k N] [--fault-errors A,B,C-D] [--fault-spikes SEQ:MS,...]
                [--swap-at N] [--swap-to GEN] [--shadow K] [--min-overlap F]
                [--swap-fault corrupt-new|kill-flip|shadow-div]
                [--min-availability F] [--telemetry FILE]
                [--slo SPEC] [--flight-dir DIR]
  pup serve     --items FILE --interactions FILE
                (--checkpoint-dir DIR | --registry DIR) [--model NAME]
                [--workers N] [--queue N] [--deadline-ms F]
                [--addr HOST:PORT] [--addr-file PATH] [--api-keys SPEC]
                [--max-conns N] [--net-backlog N] [--idle-ms F] [--write-ms F]
                [--keep-alive N] [--max-requests N] [--min-availability F]
                [--slo SPEC] [--flight-dir DIR] [--telemetry FILE]
  pup net-bench --items FILE --interactions FILE
                (--checkpoint-dir DIR | --registry DIR) [--model NAME]
                [--requests N] [--clients N] [--seed N] [-k N]
                [--mean-gap-us F] [--burst N] [--zipf F]
                [--slow-every N] [--abort-every N]
                [--api-keys SPEC] [--api-key KEY] [--min-availability F]
                [--slo SPEC] [--flight-dir DIR] [--telemetry FILE]
  pup net-bench --addr HOST:PORT [--api-key KEY] [--users N] [--requests N]
                [--clients N] [--seed N] [-k N] [--min-availability F]
  pup registry  ls       --registry DIR
  pup registry  publish  --registry DIR --checkpoint-dir DIR
  pup registry  promote  --registry DIR --gen N
  pup registry  rollback --registry DIR
  pup report-telemetry FILE [--top N]
  pup slo-report FILE
  pup bench-diff FILE [--threshold F]

MODELS: pup (default), itempop, bprmf, padq, fm, deepfm, gcmc, ngcf

`evaluate --telemetry FILE` records spans, op timings and training metrics
to FILE as JSON lines; `report-telemetry FILE` renders them as a span tree,
top ops by self-time, and metric summaries.

`recommend --checkpoint-dir DIR` restores the trained model from its newest
valid checkpoint instead of re-training (write one with
`evaluate --checkpoint-dir DIR`).

`serve-bench` restores the model from DIR, starts the bounded-queue scoring
service with a circuit breaker and popularity fallback, drives it with
closed-loop clients, and prints a report (availability, shed/degraded
counts, latency percentiles, breaker transitions). `--fault-errors 3,4,5`
makes scoring attempts 3-5 fail; `--fault-spikes 8:40` charges attempt 8 a
40ms latency spike. With `--min-availability 0.99` the exit code fails when
availability over admitted requests drops below the floor.

`pup registry` manages a versioned model registry: `publish` copies the
newest valid checkpoint of --checkpoint-dir in as the next generation
(the first publish auto-promotes), `promote`/`rollback` atomically move
the CURRENT pointer, `ls` lists generations. `serve-bench --registry DIR`
serves from the registry's CURRENT generation; adding `--swap-at N` hot-
swaps to `--swap-to GEN` (default: newest) once the N-th request has been
submitted, shadow-scoring it for `--shadow K` requests (overlap floor
`--min-overlap F`) before promotion — without dropping a request.
`--swap-fault` injects a lifecycle fault into that swap: `corrupt-new`
damages the candidate on disk (validation must roll back), `kill-flip`
kills the promotion mid pointer-flip (old generation keeps serving), and
`shadow-div` forces shadow divergence (window must roll back). The swap
flags are an error without `--registry`.

`serve-bench --slo SPEC` turns on the live observability layer: every
admitted request carries a trace id through queue, scoring, ranking and
response; multi-window burn-rate monitors watch availability and latency;
and a flight recorder of recent requests dumps to `--flight-dir` (default
target/flight-recorder) the moment an SLO pages, the breaker trips, or a
swap rolls back. SPEC is `default` or comma-separated keys, e.g.
`avail=0.999,p99-ms=50,fast=100,slow=400,warn=2,page=10,min=100`. The exit
code fails when any page-level SLO event is still un-recovered at the end
of the run. `slo-report FILE` renders the SLO events, the un-recovered
monitors, and the slowest tail exemplars of a `--telemetry` JSONL file —
each exemplar resolves to its full stitched trace tree.

`pup serve` puts the scoring service behind a real HTTP/1.1-over-TCP front
door: bounded accept backlog (overflow shed with 503), per-tenant API keys
and token-bucket rate limits (`--api-keys name:key:rate:burst,...`), armed
read/write timeouts on every socket, and keep-alive connections. It prints
the bound address (`--addr 127.0.0.1:0` picks a free port; `--addr-file`
writes it for scripts), then serves until `GET /admin/drain` (authenticated)
or `--max-requests N` responses, drains gracefully — in-flight requests
finish, nothing is dropped — and prints the network + engine reports.

`net-bench` drives that front door with a seeded open-loop client schedule
(Poisson arrivals by default, `--burst N` for bursty; `--zipf F` skews user
popularity). `--slow-every N` sends every N-th request in two halves with a
pause; `--abort-every N` disconnects every N-th client before the response.
Self-hosted mode (with `--items`) starts the gateway in-process on loopback,
drives it, drains, and applies `--min-availability` to the server's own
delivered/owed ratio; `--addr` mode targets an already-running `pup serve`
and gates on the client-observed ratio instead.

`bench-diff FILE` compares the last two runs recorded in an appended
`BENCH_<target>.json` trajectory and fails on any case whose median
slowed down more than `--threshold` (default 0.10 = 10%).";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        // `-k` is shorthand for `--top` (top-K size), as in `recommend -k 10`.
        let key = if a == "-k" {
            "top"
        } else if let Some(key) = a.strip_prefix("--") {
            key
        } else {
            return Err(format!("expected --flag, got {a:?}"));
        };
        if key == "rank-quantize" || key == "resume" {
            flags.insert(key.to_string(), "true".to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        // pup-lint: allow(clone-in-loop) — owning a borrowed CLI arg, once per flag at startup.
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn get_parsed<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse {v:?}")),
    }
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let preset = flags.get("preset").ok_or("--preset is required")?;
    let scale: f64 = get_parsed(flags, "scale", 0.02)?;
    let seed: u64 = get_parsed(flags, "seed", 2020)?;
    let out = PathBuf::from(flags.get("out").ok_or("--out is required")?);
    let synth = match preset.as_str() {
        "yelp" => yelp_like(scale, seed),
        "beibei" => beibei_like(scale, seed),
        "amazon" => amazon_like(scale, seed),
        other => return Err(format!("unknown preset {other:?} (yelp|beibei|amazon)")),
    };
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {out:?}: {e}"))?;
    let items = out.join("items.csv");
    let inter = out.join("interactions.csv");
    save_dataset(&synth.dataset, None, &items, &inter).map_err(|e| e.to_string())?;
    println!(
        "wrote {} items and {} interactions to {}",
        synth.dataset.n_items,
        synth.dataset.n_interactions(),
        out.display()
    );
    Ok(())
}

fn load(flags: &HashMap<String, String>) -> Result<(Pipeline, IdMaps), String> {
    let items = flags.get("items").ok_or("--items is required")?;
    let inter = flags.get("interactions").ok_or("--interactions is required")?;
    let levels: usize = get_parsed(flags, "levels", 10)?;
    let scheme = if flags.contains_key("rank-quantize") {
        Quantization::Rank
    } else {
        Quantization::Uniform
    };
    let (dataset, maps) = load_dataset(Path::new(items), Path::new(inter), levels, scheme)
        .map_err(|e| e.to_string())?;
    Ok((Pipeline::new(dataset), maps))
}

fn fit_config(flags: &HashMap<String, String>) -> Result<FitConfig, String> {
    let epochs: usize = get_parsed(flags, "epochs", 30)?;
    let seed: u64 = get_parsed(flags, "seed", 7)?;
    Ok(FitConfig {
        train: TrainConfig { epochs, seed, ..Default::default() },
        seed,
        ..Default::default()
    })
}

fn model_kind(flags: &HashMap<String, String>) -> Result<ModelKind, String> {
    Ok(match flags.get("model").map(String::as_str).unwrap_or("pup") {
        "pup" => ModelKind::Pup(PupConfig::default()),
        "itempop" => ModelKind::ItemPop,
        "bprmf" => ModelKind::BprMf,
        "padq" => ModelKind::Padq,
        "fm" => ModelKind::Fm,
        "deepfm" => ModelKind::DeepFm,
        "gcmc" => ModelKind::GcMc,
        "ngcf" => ModelKind::Ngcf,
        other => return Err(format!("unknown model {other:?}")),
    })
}

fn cmd_evaluate(flags: &HashMap<String, String>) -> Result<(), String> {
    let (pipeline, _maps) = load(flags)?;
    let cfg = fit_config(flags)?;
    let kind = model_kind(flags)?;
    let ks: Vec<usize> = flags
        .get("k")
        .map(String::as_str)
        .unwrap_or("50,100")
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("--k: bad cutoff {s:?}")))
        .collect::<Result<_, _>>()?;
    let telemetry_out = flags.get("telemetry").map(PathBuf::from);
    if telemetry_out.is_some() {
        pup_obs::start();
    }
    eprintln!(
        "training {} on {} users / {} items ({} train pairs, {} epochs) ...",
        kind.name(),
        pipeline.dataset().n_users,
        pipeline.dataset().n_items,
        pipeline.split().train.len(),
        cfg.train.epochs
    );
    let model = match flags.get("checkpoint-dir") {
        None => pipeline.fit(kind, &cfg),
        Some(dir) => {
            let resume = flags.contains_key("resume");
            let (model, stats) = pipeline
                .fit_checkpointed(kind, &cfg, &RecoveryPolicy::default(), Path::new(dir), resume)
                .map_err(|e| e.to_string())?;
            for rec in &stats.recoveries {
                eprintln!(
                    "recovered from divergence at epoch {}: rolled back to epoch {}, \
                     retry {} (lr x{})",
                    rec.at_epoch, rec.rolled_back_to, rec.retry, rec.lr_factor
                );
            }
            model
        }
    };
    let report = pipeline.evaluate(model.as_ref(), &ks);
    if let Some(path) = &telemetry_out {
        let telemetry = pup_obs::finish();
        telemetry.write_jsonl(path).map_err(|e| format!("--telemetry {}: {e}", path.display()))?;
        eprintln!(
            "telemetry: {} spans, {} metric series written to {} \
             (render with `pup report-telemetry {}`)",
            telemetry.spans.len(),
            telemetry.counters.len() + telemetry.gauges.len() + telemetry.hists.len(),
            path.display(),
            path.display()
        );
    }
    let mut table = Table::for_metrics(&ks);
    table.push_report(&report);
    println!("{}", table.render());
    println!("({} users evaluated)", report.n_users);
    Ok(())
}

fn cmd_report_telemetry(args: &[String]) -> Result<(), String> {
    let mut file: Option<&str> = None;
    let mut top_k = pup_obs::report::DEFAULT_TOP_K;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--top" {
            let v = it.next().ok_or("--top needs a value")?;
            top_k = v.parse().map_err(|_| format!("--top: cannot parse {v:?}"))?;
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a:?} for report-telemetry"));
        } else if file.is_none() {
            file = Some(a);
        } else {
            return Err(format!("unexpected extra argument {a:?}"));
        }
    }
    let file = file.ok_or("usage: pup report-telemetry FILE [--top N]")?;
    let telemetry =
        pup_obs::Telemetry::read_jsonl(Path::new(file)).map_err(|e| format!("{file}: {e}"))?;
    println!("{}", pup_obs::report::render_with_top_k(&telemetry, top_k));
    Ok(())
}

/// Renders the SLO side of a telemetry JSONL file: every burn-rate event,
/// the monitors still paging at the end of the run, and the slowest tail
/// exemplars resolved to their stitched trace trees.
fn cmd_slo_report(args: &[String]) -> Result<(), String> {
    let file = match args {
        [f] if !f.starts_with("--") => f,
        _ => return Err("usage: pup slo-report FILE".into()),
    };
    let telemetry =
        pup_obs::Telemetry::read_jsonl(Path::new(file)).map_err(|e| format!("{file}: {e}"))?;

    println!("SLO report: {file}");
    if telemetry.slo_events.is_empty() {
        println!("  no SLO events recorded (all monitors stayed inside budget)");
    }
    for e in &telemetry.slo_events {
        println!(
            "  @outcome {:>5}  {:<12} {:<9} burn fast {:>7.2} / slow {:>7.2}",
            e.seq,
            e.monitor.label(),
            e.level.label(),
            e.fast_burn,
            e.slow_burn
        );
    }
    let unrecovered = pup_obs::slo::unrecovered_from_events(&telemetry.slo_events);
    if unrecovered.is_empty() {
        println!("  every page recovered by end of run");
    } else {
        for m in &unrecovered {
            println!("  UNRECOVERED PAGE: {}", m.label());
        }
    }

    let mut exemplars = telemetry.exemplars.clone();
    exemplars.sort_by(|a, b| b.value.total_cmp(&a.value));
    if !exemplars.is_empty() {
        println!("\nslowest tail exemplars:");
    }
    for ex in exemplars.iter().take(3) {
        let bucket = match ex.le {
            Some(le) => format!("le {le}"),
            None => "overflow".to_string(),
        };
        println!("  {} bucket {bucket}: {:.3}ms -> trace {}", ex.hist, ex.value / 1e6, ex.trace);
        let tree = pup_obs::trace::tree_shape(&telemetry.traces, ex.trace);
        if tree.is_empty() {
            println!("    (trace not present in this file)");
        } else {
            for line in tree.lines() {
                println!("    {line}");
            }
        }
    }
    if !unrecovered.is_empty() {
        return Err(format!("{} monitor(s) ended the run paging", unrecovered.len()));
    }
    Ok(())
}

/// Compares the last two entries of an appended `BENCH_<target>.json`
/// trajectory and fails on any case whose median regressed past the
/// threshold.
fn cmd_bench_diff(args: &[String]) -> Result<(), String> {
    let mut file: Option<&str> = None;
    let mut threshold = 0.10f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threshold" {
            let v = it.next().ok_or("--threshold needs a value")?;
            threshold = v.parse().map_err(|_| format!("--threshold: cannot parse {v:?}"))?;
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a:?} for bench-diff"));
        } else if file.is_none() {
            file = Some(a);
        } else {
            return Err(format!("unexpected extra argument {a:?}"));
        }
    }
    let file = file.ok_or("usage: pup bench-diff FILE [--threshold F]")?;
    let traj = pup_obs::bench::read_bench_trajectory(Path::new(file))?;
    let diffs = pup_obs::bench::diff_last_two(&traj)?;
    let (prev, last) =
        (traj.entries[traj.entries.len() - 2].seq, traj.entries[traj.entries.len() - 1].seq);
    println!(
        "bench-diff {}: entry {prev} -> entry {last} ({} case(s), threshold {:.0}%)",
        traj.target,
        diffs.len(),
        threshold * 100.0
    );
    let mut regressions = 0usize;
    for d in &diffs {
        let verdict = match (d.before_ns, d.after_ns, d.ratio) {
            (_, _, Some(r)) if d.regressed(threshold) => {
                regressions += 1;
                format!("{:+.1}%  REGRESSED", (r - 1.0) * 100.0)
            }
            (_, _, Some(r)) => format!("{:+.1}%", (r - 1.0) * 100.0),
            (None, Some(_), _) => "new case".to_string(),
            _ => "removed".to_string(),
        };
        println!(
            "  {:<16} {:<28} {:>12} -> {:>12}  {verdict}",
            d.group,
            d.name,
            d.before_ns.map_or("-".to_string(), |ns| format!("{ns}ns")),
            d.after_ns.map_or("-".to_string(), |ns| format!("{ns}ns")),
        );
    }
    if regressions > 0 {
        return Err(format!(
            "{regressions} case(s) regressed more than {:.0}% between the last two runs",
            threshold * 100.0
        ));
    }
    Ok(())
}

fn cmd_recommend(flags: &HashMap<String, String>) -> Result<(), String> {
    let (pipeline, maps) = load(flags)?;
    let user_name = flags.get("user").ok_or("--user is required")?;
    let user = maps
        .users
        .iter()
        .position(|u| u == user_name)
        .ok_or_else(|| format!("user {user_name:?} not found"))?;
    let top: usize = get_parsed(flags, "top", 10)?;
    let cfg = fit_config(flags)?;
    let kind = model_kind(flags)?;
    let model = match flags.get("checkpoint-dir") {
        Some(dir) => {
            eprintln!("restoring {} from checkpoints in {dir} ...", kind.name());
            pipeline
                .load_checkpointed(kind, &cfg, Path::new(dir))
                .map_err(|e| format!("--checkpoint-dir {dir}: {e}"))?
        }
        None => {
            eprintln!("training {} ({} epochs) ...", kind.name(), cfg.train.epochs);
            pipeline.fit(kind, &cfg)
        }
    };
    let dataset = pipeline.dataset();
    let seen = &pipeline.split().train_items_by_user()[user];
    let candidates = Candidates::Unseen { n_items: dataset.n_items, seen };
    let ranked = model
        .try_top_k(user, candidates, top)
        .and_then(Shortlist::rank)
        .map_err(|e| e.to_string())?;
    println!("top {top} items for user {user_name:?}:");
    for (rank, &i) in ranked.iter().enumerate() {
        let i = i as usize;
        println!(
            "  {:>2}. {:<16} price {:>10.2} (level {}/{})  category {}",
            rank + 1,
            maps.items[i],
            dataset.item_price[i],
            dataset.item_price_level[i],
            dataset.n_price_levels,
            maps.categories[dataset.item_category[i]],
        );
    }
    Ok(())
}

/// Parses a scorer-error schedule like `"3,4,10-12"` into attempt indices.
fn parse_fault_errors(spec: &str) -> Result<Vec<u64>, String> {
    let mut out = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((lo, hi)) => {
                let lo: u64 = lo.trim().parse().map_err(|_| bad_fault(part))?;
                let hi: u64 = hi.trim().parse().map_err(|_| bad_fault(part))?;
                if lo > hi {
                    return Err(bad_fault(part));
                }
                out.extend(lo..=hi);
            }
            None => out.push(part.parse().map_err(|_| bad_fault(part))?),
        }
    }
    Ok(out)
}

/// Parses a latency-spike schedule like `"8:40,20:15"` (attempt:milliseconds).
fn parse_fault_spikes(spec: &str) -> Result<Vec<(u64, u64)>, String> {
    let mut out = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (seq, ms) = part.split_once(':').ok_or_else(|| bad_fault(part))?;
        let seq: u64 = seq.trim().parse().map_err(|_| bad_fault(part))?;
        let ms: u64 = ms.trim().parse().map_err(|_| bad_fault(part))?;
        out.push((seq, ms.saturating_mul(1_000_000)));
    }
    Ok(out)
}

fn bad_fault(part: &str) -> String {
    format!("bad fault spec element {part:?} (use `A,B,C-D` or `SEQ:MS,...`)")
}

fn open_registry(
    flags: &HashMap<String, String>,
) -> Result<pup_ckpt::registry::ModelRegistry, String> {
    let dir = flags.get("registry").ok_or("--registry is required")?;
    pup_ckpt::registry::ModelRegistry::open(Path::new(dir))
        .map_err(|e| format!("--registry {dir}: {e}"))
}

fn cmd_registry(action: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let reg = open_registry(flags)?;
    match action {
        "ls" => {
            let current = reg.current().map_err(|e| e.to_string())?;
            let listed = reg.list().map_err(|e| e.to_string())?;
            if listed.is_empty() {
                println!("registry {} holds no valid generations", reg.dir().display());
                return Ok(());
            }
            println!("{:<9} {:>7} {:>12} {:>18}", "gen", "epoch", "bytes", "checksum");
            for m in &listed {
                let marker = if current == Some(m.gen) { " <- CURRENT" } else { "" };
                println!(
                    "{:<9} {:>7} {:>12} {:>18}{marker}",
                    m.gen,
                    m.epoch,
                    m.ckpt_len,
                    format!("{:016x}", m.ckpt_checksum)
                );
            }
            Ok(())
        }
        "publish" => {
            let dir = flags.get("checkpoint-dir").ok_or("--checkpoint-dir is required")?;
            let latest =
                pup_ckpt::store::load_latest(Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
            let m = reg.publish(&latest.checkpoint).map_err(|e| e.to_string())?;
            println!("published generation {} (epoch {}, {} bytes)", m.gen, m.epoch, m.ckpt_len);
            Ok(())
        }
        "promote" => {
            let gen: u64 = get_parsed(flags, "gen", u64::MAX)?;
            if gen == u64::MAX {
                return Err("--gen is required for promote".into());
            }
            reg.promote(gen).map_err(|e| e.to_string())?;
            println!("promoted generation {gen} to CURRENT");
            Ok(())
        }
        "rollback" => {
            let gen = reg.rollback().map_err(|e| e.to_string())?;
            println!("rolled CURRENT back to generation {gen}");
            Ok(())
        }
        other => Err(format!("unknown registry action {other:?} (ls|publish|promote|rollback)")),
    }
}

fn cmd_serve_bench(flags: &HashMap<String, String>) -> Result<(), String> {
    // Only a registry has generations to swap to.
    if !flags.contains_key("registry") {
        if let Some(flag) =
            ["swap-at", "swap-to", "swap-fault"].iter().find(|f| flags.contains_key(**f))
        {
            return Err(format!("--{flag} needs --registry"));
        }
    }
    let bench = pup_serve::BenchConfig {
        requests: get_parsed(flags, "requests", 200)?,
        clients: get_parsed(flags, "clients", 4)?,
        k: get_parsed(flags, "top", 10)?,
        seed: get_parsed(flags, "seed", 7)?,
    };

    let mut plan = pup_ckpt::chaos::FaultPlan::none();
    if let Some(spec) = flags.get("fault-errors") {
        plan = plan.with_scorer_errors(parse_fault_errors(spec)?);
    }
    if let Some(spec) = flags.get("fault-spikes") {
        plan = plan.with_latency_spikes(parse_fault_spikes(spec)?);
    }
    // A bench run makes at most one swap attempt, so lifecycle faults are
    // keyed to swap attempt 0.
    if let Some(fault) = flags.get("swap-fault") {
        plan = match fault.as_str() {
            "corrupt-new" => plan.with_swap_corruption([0]),
            "kill-flip" => plan.with_swap_kill_flips([0]),
            "shadow-div" => plan.with_shadow_divergence([0]),
            other => {
                return Err(format!(
                    "unknown swap fault {other:?} (corrupt-new|kill-flip|shadow-div)"
                ))
            }
        };
    }
    let swap_at: Option<u64> = match flags.get("swap-at") {
        Some(v) => Some(v.parse().map_err(|_| format!("--swap-at: cannot parse {v:?}"))?),
        None => None,
    };
    let defaults = pup_serve::SwapConfig::default();
    let swap_cfg = pup_serve::SwapConfig {
        shadow_requests: get_parsed(flags, "shadow", defaults.shadow_requests)?,
        min_overlap: get_parsed(flags, "min-overlap", defaults.min_overlap)?,
        ..defaults
    };

    let serving = start_serving(flags, plan, swap_cfg)?;
    let cfg = &serving.engine.cfg;
    let deadline_ms = cfg.deadline_ns as f64 / 1e6;
    eprintln!(
        "serving {} requests from {} closed-loop clients ({} workers, queue {}, deadline {deadline_ms}ms) ...",
        bench.requests, bench.clients, cfg.workers, cfg.queue_capacity
    );
    let swap = match (swap_at, &serving.registry) {
        (Some(at), Some(reg)) => {
            let to_gen: u64 = match flags.get("swap-to") {
                Some(v) => v.parse().map_err(|_| format!("--swap-to: cannot parse {v:?}"))?,
                None => reg
                    .list()
                    .map_err(|e| e.to_string())?
                    .last()
                    .map(|m| m.gen)
                    .ok_or("registry holds no valid generations to swap to")?,
            };
            eprintln!("hot swap to generation {to_gen} scheduled at request {at}");
            Some((pup_serve::SwapPlan { at_request: at, to_gen }, reg.clone()))
        }
        _ => None,
    };
    let report = pup_serve::run_closed_loop(
        Arc::clone(&serving.engine),
        Arc::clone(&serving.factory),
        bench,
        swap,
    )
    .map_err(|e| e.to_string())?;
    println!("{}", report.render());
    serving.finish(report.availability, &report)
}

/// What every serving command (`serve-bench`, `serve`, `net-bench`) starts
/// from.
struct Serving {
    /// The scoring engine's shared state.
    engine: Arc<pup_serve::ServiceShared>,
    /// Restores the scorer of the generation asked for.
    factory: pup_serve::GenScorerFactory,
    /// The registry served from, if any (else `--checkpoint-dir`).
    registry: Option<pup_ckpt::registry::ModelRegistry>,
    min_availability: f64,
    telemetry: Option<PathBuf>,
}

/// Loads the dataset and sets up serving the model from `--registry`'s
/// CURRENT generation or from `--checkpoint-dir`'s newest checkpoint,
/// configured from the serving flags (`--queue`, `--workers`,
/// `--deadline-ms`, `--retries`, `--telemetry`, `--slo`, `--flight-dir`,
/// `--min-availability`). `plan` injects faults; serving from a registry
/// adds a swap controller configured by `swap_cfg`.
fn start_serving(
    flags: &HashMap<String, String>,
    plan: pup_ckpt::chaos::FaultPlan,
    swap_cfg: pup_serve::SwapConfig,
) -> Result<Serving, String> {
    let (pipeline, _maps) = load(flags)?;
    let registry = if flags.contains_key("registry") { Some(open_registry(flags)?) } else { None };
    let cfg = fit_config(flags)?;
    let kind = model_kind(flags)?;
    let min_availability: f64 = get_parsed(flags, "min-availability", 0.0)?;
    let mut serve_cfg = pup_serve::ServeConfig::default();
    serve_cfg.queue_capacity = get_parsed(flags, "queue", serve_cfg.queue_capacity)?;
    serve_cfg.workers = get_parsed(flags, "workers", serve_cfg.workers)?;
    let deadline_ms: f64 = get_parsed(flags, "deadline-ms", 50.0)?;
    serve_cfg.deadline_ns = (deadline_ms * 1e6) as u64;
    serve_cfg.max_retries = get_parsed(flags, "retries", serve_cfg.max_retries)?;

    // Telemetry starts before the first checkpoint read, so set-up's read
    // is counted with the rest.
    let telemetry = flags.get("telemetry").map(PathBuf::from);
    if telemetry.is_some() {
        pup_obs::start();
    }

    // Where generations come from, and which one serves first.
    type LoadCheckpoint = Box<dyn Fn(u64) -> Result<pup_ckpt::Checkpoint, String> + Send + Sync>;
    let (load_ckpt, serving_gen, source): (LoadCheckpoint, _, _) =
        match (&registry, flags.get("checkpoint-dir")) {
            (Some(reg), _) => {
                let (manifest, first) = reg.load_serving().map_err(|e| e.to_string())?;
                let gen = manifest.gen;
                let source = format!("registry generation {gen} in {}", reg.dir().display());
                let reg = reg.clone();
                // The first build restores from the checkpoint read here;
                // later builds (swaps) read their generation afresh.
                let first = Mutex::new(Some(first));
                let load = move |to_gen| {
                    let preloaded = first
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take_if(|_| to_gen == gen);
                    match preloaded {
                        Some(ckpt) => Ok(ckpt),
                        None => reg.load(to_gen).map_err(|e| format!("generation {to_gen}: {e}")),
                    }
                };
                (Box::new(load), Some(gen), source)
            }
            (None, Some(dir)) => {
                let source = format!("checkpoints in {dir}");
                let dir = PathBuf::from(dir);
                let load = move |_gen| {
                    pup_ckpt::store::load_latest(&dir)
                        .map(|latest| latest.checkpoint)
                        .map_err(|e| format!("--checkpoint-dir {}: {e}", dir.display()))
                };
                (Box::new(load), None, source)
            }
            (None, None) => return Err("either --checkpoint-dir or --registry is required".into()),
        };

    let slo_spec = match flags.get("slo").map(String::as_str) {
        None => None,
        Some("default") => Some(pup_obs::slo::SloSpec::default()),
        Some(spec) => Some(pup_obs::slo::SloSpec::parse(spec).map_err(|e| format!("--slo: {e}"))?),
    };

    let split = pipeline.split();
    let (n_users, n_items) = (split.n_users, split.n_items);
    let fallback = pup_serve::Fallback::from_train(n_users, n_items, &split.train)
        .map_err(|e| e.to_string())?;
    let mut engine = match serving_gen {
        Some(gen) => pup_serve::ServiceShared::with_swap(
            serve_cfg,
            fallback,
            n_users,
            plan,
            pup_serve::SwapController::new(gen, swap_cfg),
        ),
        None => pup_serve::ServiceShared::with_faults(serve_cfg, fallback, n_users, plan),
    };
    if slo_spec.is_some() || telemetry.is_some() {
        engine.enable_tracing(pup_obs::trace::TraceSink::new());
    }
    if let Some(spec) = slo_spec {
        engine.enable_slo(pup_obs::slo::SloEngine::new(spec));
        let flight_dir = flags
            .get("flight-dir")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/flight-recorder"));
        engine.enable_flight_recorder(pup_serve::PostMortem::new(flight_dir, 256));
    }

    eprintln!("restoring {} from {source} ...", kind.name());
    let pipeline = Arc::new(pipeline);
    let factory: pup_serve::GenScorerFactory =
        Arc::new(move |gen| -> Result<Box<dyn pup_serve::Scorer>, String> {
            let model = pipeline
                .restore_from_checkpoint(kind.clone(), &cfg, &load_ckpt(gen)?)
                .map_err(|e| e.to_string())?;
            Ok(Box::new(pup_serve::RecommenderScorer::new(model, n_items)))
        });
    Ok(Serving { engine: Arc::new(engine), factory, registry, min_availability, telemetry })
}

impl Serving {
    /// Ends a serving command: prints the flight-recorder dump paths,
    /// writes the telemetry file, and applies the availability and SLO
    /// exit-code gates.
    fn finish(&self, availability: f64, report: &pup_serve::ServeReport) -> Result<(), String> {
        if let Some(postmortem) = &self.engine.postmortem {
            for path in postmortem.dumped_paths() {
                eprintln!("flight-recorder dump: {}", path.display());
            }
        }
        if let Some(path) = &self.telemetry {
            self.engine.publish_obs();
            let telemetry = pup_obs::finish();
            telemetry
                .write_jsonl(path)
                .map_err(|e| format!("--telemetry {}: {e}", path.display()))?;
            eprintln!("telemetry written to {}", path.display());
        }
        if availability < self.min_availability {
            return Err(format!(
                "availability {availability:.4} fell below the required {:.4}",
                self.min_availability
            ));
        }
        if report.slo_unrecovered_pages > 0 {
            return Err(format!(
                "SLO gate: {} page-level event(s) still un-recovered at end of run",
                report.slo_unrecovered_pages
            ));
        }
        Ok(())
    }
}

/// Builds a [`pup_serve::NetConfig`] from the network flags; unset flags
/// keep the library defaults.
fn build_net_config(flags: &HashMap<String, String>) -> Result<pup_serve::NetConfig, String> {
    let mut net = pup_serve::NetConfig::default();
    if let Some(addr) = flags.get("addr") {
        net.addr = addr.to_string();
    }
    net.max_conns = get_parsed(flags, "max-conns", net.max_conns)?;
    net.backlog = get_parsed(flags, "net-backlog", net.backlog)?;
    let idle_ms: f64 = get_parsed(flags, "idle-ms", net.idle_timeout_ns as f64 / 1e6)?;
    net.idle_timeout_ns = (idle_ms * 1e6) as u64;
    let write_ms: f64 = get_parsed(flags, "write-ms", net.write_timeout_ns as f64 / 1e6)?;
    net.write_timeout_ns = (write_ms * 1e6) as u64;
    net.keep_alive_max = get_parsed(flags, "keep-alive", net.keep_alive_max)?;
    if let Some(spec) = flags.get("api-keys") {
        net.tenants =
            pup_serve::TenantConfig::parse_list(spec).map_err(|e| format!("--api-keys: {e}"))?;
    }
    Ok(net)
}

/// Sets up serving (see [`start_serving`]) and puts the engine behind a
/// TCP gateway configured from the network flags.
fn start_gateway(flags: &HashMap<String, String>) -> Result<(pup_serve::Gateway, Serving), String> {
    let plan = pup_ckpt::chaos::FaultPlan::none();
    let serving = start_serving(flags, plan, pup_serve::SwapConfig::default())?;
    let server = pup_serve::Server::start_with_generations(
        Arc::clone(&serving.engine),
        Arc::clone(&serving.factory),
    )
    .map_err(|e| e.to_string())?;
    let net = build_net_config(flags)?;
    let gateway = pup_serve::Gateway::start(net, server).map_err(|e| e.to_string())?;
    Ok((gateway, serving))
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let (gateway, serving) = start_gateway(flags)?;
    let addr = gateway.local_addr();
    println!("listening on {addr}");
    if let Some(path) = flags.get("addr-file") {
        // Temp + rename: scripts poll for this file, and a torn write
        // would hand them half an address.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, addr.to_string())
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| format!("--addr-file {path}: {e}"))?;
    }
    let max_requests: u64 = get_parsed(flags, "max-requests", 0)?;
    let net_shared = gateway.shared();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(25));
        if gateway.is_draining() {
            break;
        }
        if max_requests > 0 && net_shared.stats.report().responded() >= max_requests {
            break;
        }
    }
    let (net, engine_report) = gateway.shutdown();
    println!("{}", net.render());
    println!("{}", engine_report.render());
    serving.finish(net.availability(), &engine_report)
}

/// Client-side tallies of one open-loop drive. `sent` excludes injected
/// aborts — those clients never wait for an answer.
#[derive(Clone, Copy, Debug, Default)]
struct ClientSummary {
    sent: u64,
    delivered: u64,
    ok_2xx: u64,
    non_2xx: u64,
    errors: u64,
    aborted: u64,
}

impl ClientSummary {
    fn add(&mut self, other: ClientSummary) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.ok_2xx += other.ok_2xx;
        self.non_2xx += other.non_2xx;
        self.errors += other.errors;
        self.aborted += other.aborted;
    }

    /// Responses received over requests a response was waited for.
    fn availability(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }

    fn render(&self) -> String {
        format!(
            "== client report ==\nsent:      {} ({} aborted on purpose)\ndelivered: {} \
             ({} 2xx | {} non-2xx) | {} transport errors\navailability (client-observed): {:.4}",
            self.sent,
            self.aborted,
            self.delivered,
            self.ok_2xx,
            self.non_2xx,
            self.errors,
            self.availability()
        )
    }
}

/// Replays an open-loop arrival plan against a live gateway over real
/// sockets: `clients` threads share the schedule round-robin, each pacing
/// its arrivals against the wall clock, reusing one keep-alive connection
/// until an error forces a reconnect.
fn drive_open_loop(
    addr: &str,
    plan: &[pup_serve::loadgen::Arrival],
    k: usize,
    api_key: Option<&str>,
    clients: usize,
    abort_every: usize,
) -> ClientSummary {
    use pup_serve::net::HttpClient;
    const CONNECT_TIMEOUT_NS: u64 = 2_000_000_000;
    let clients = clients.max(1);
    let start = std::time::Instant::now();
    let mut total = ClientSummary::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut sum = ClientSummary::default();
                    let mut conn: Option<HttpClient> = None;
                    for (i, a) in plan.iter().enumerate() {
                        if i % clients != c {
                            continue;
                        }
                        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        if a.at_ns > elapsed {
                            std::thread::sleep(std::time::Duration::from_nanos(a.at_ns - elapsed));
                        }
                        let target = format!("/recommend?user={}&k={k}", a.user);
                        if abort_every > 0 && i % abort_every == abort_every - 1 {
                            if let Ok(one_shot) = HttpClient::connect(addr, CONNECT_TIMEOUT_NS) {
                                let _ = one_shot.send_and_abort(&target, api_key);
                            }
                            sum.aborted += 1;
                            continue;
                        }
                        sum.sent += 1;
                        let outcome = (|| -> std::io::Result<(u16, String)> {
                            let mut cl = match conn.take() {
                                Some(cl) => cl,
                                None => HttpClient::connect(addr, CONNECT_TIMEOUT_NS)?,
                            };
                            let res = if a.slow {
                                cl.send_request_slowly(
                                    &target,
                                    api_key,
                                    std::time::Duration::from_millis(5),
                                )
                                .and_then(|()| cl.read_response())
                            } else {
                                cl.get(&target, api_key)
                            };
                            if res.is_ok() {
                                conn = Some(cl);
                            }
                            res
                        })();
                        match outcome {
                            Ok((status, _)) => {
                                sum.delivered += 1;
                                if status < 400 {
                                    sum.ok_2xx += 1;
                                } else {
                                    sum.non_2xx += 1;
                                }
                            }
                            Err(_) => sum.errors += 1,
                        }
                    }
                    sum
                })
            })
            .collect();
        for h in handles {
            total.add(h.join().unwrap_or_default());
        }
    });
    total
}

fn cmd_net_bench(flags: &HashMap<String, String>) -> Result<(), String> {
    let requests: usize = get_parsed(flags, "requests", 200)?;
    let k: usize = get_parsed(flags, "top", 10)?;
    let seed: u64 = get_parsed(flags, "seed", 7)?;
    let clients: usize = get_parsed(flags, "clients", 4)?;
    let abort_every: usize = get_parsed(flags, "abort-every", 0)?;
    let slow_every: usize = get_parsed(flags, "slow-every", 0)?;
    let mean_gap_us: f64 = get_parsed(flags, "mean-gap-us", 200.0)?;
    let burst: usize = get_parsed(flags, "burst", 0)?;
    let zipf_exponent: f64 = get_parsed(flags, "zipf", 1.0)?;
    let api_key = flags.get("api-key").cloned();

    let mean_gap_ns = (mean_gap_us * 1e3) as u64;
    let arrivals = if burst > 0 {
        pup_serve::loadgen::Arrivals::Bursty {
            burst,
            gap_ns: mean_gap_ns,
            idle_ns: mean_gap_ns.saturating_mul(10),
        }
    } else {
        pup_serve::loadgen::Arrivals::Poisson { mean_gap_ns }
    };
    let open_cfg = pup_serve::loadgen::OpenLoopConfig {
        requests,
        k,
        seed,
        arrivals,
        zipf_exponent,
        slow_every,
    };

    // `--addr` without `--items` targets an already-running server; with
    // `--items` the bench hosts its own gateway on loopback.
    if let (Some(addr), false) = (flags.get("addr"), flags.contains_key("items")) {
        let n_users: usize = get_parsed(flags, "users", 64)?;
        let min_availability: f64 = get_parsed(flags, "min-availability", 0.0)?;
        let plan = pup_serve::loadgen::open_loop_plan(&open_cfg, n_users);
        eprintln!("driving {} open-loop requests at {addr} ...", plan.len());
        let summary = drive_open_loop(addr, &plan, k, api_key.as_deref(), clients, abort_every);
        println!("{}", summary.render());
        if summary.availability() < min_availability {
            return Err(format!(
                "availability {:.4} fell below the required {min_availability:.4}",
                summary.availability()
            ));
        }
        return Ok(());
    }

    let (gateway, serving) = start_gateway(flags)?;
    let addr = gateway.local_addr().to_string();
    let plan = pup_serve::loadgen::open_loop_plan(&open_cfg, serving.engine.n_users);
    eprintln!(
        "driving {} open-loop requests from {} clients at {addr} ...",
        plan.len(),
        clients.max(1)
    );
    let summary = drive_open_loop(&addr, &plan, k, api_key.as_deref(), clients, abort_every);
    let (net, engine_report) = gateway.shutdown();
    println!("{}", summary.render());
    println!("{}", net.render());
    println!("{}", engine_report.render());
    serving.finish(net.availability(), &engine_report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<HashMap<String, String>, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_key_value_flags() {
        let f = flags(&["--preset", "yelp", "--scale", "0.1"]).unwrap();
        assert_eq!(f["preset"], "yelp");
        assert_eq!(f["scale"], "0.1");
    }

    #[test]
    fn parses_boolean_flag() {
        let f = flags(&["--rank-quantize", "--levels", "5"]).unwrap();
        assert_eq!(f["rank-quantize"], "true");
        assert_eq!(f["levels"], "5");
    }

    #[test]
    fn resume_is_a_boolean_flag() {
        let f = flags(&["--resume", "--checkpoint-dir", "ckpts"]).unwrap();
        assert_eq!(f["resume"], "true");
        assert_eq!(f["checkpoint-dir"], "ckpts");
    }

    #[test]
    fn rejects_positional_arguments_and_missing_values() {
        assert!(flags(&["oops"]).unwrap_err().contains("--flag"));
        assert!(flags(&["--scale"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn get_parsed_defaults_and_errors() {
        let f = flags(&["--epochs", "12"]).unwrap();
        assert_eq!(get_parsed(&f, "epochs", 1usize).unwrap(), 12);
        assert_eq!(get_parsed(&f, "top", 10usize).unwrap(), 10);
        let bad = flags(&["--epochs", "many"]).unwrap();
        assert!(get_parsed(&bad, "epochs", 1usize).is_err());
    }

    #[test]
    fn dash_k_is_an_alias_for_top() {
        let f = flags(&["-k", "25", "--user", "u3"]).unwrap();
        assert_eq!(f["top"], "25");
        assert_eq!(f["user"], "u3");
    }

    #[test]
    fn fault_error_spec_parses_singles_and_ranges() {
        assert_eq!(parse_fault_errors("3, 5,8-10").unwrap(), vec![3, 5, 8, 9, 10]);
        assert_eq!(parse_fault_errors("").unwrap(), Vec::<u64>::new());
        assert!(parse_fault_errors("7-4").is_err());
        assert!(parse_fault_errors("x").is_err());
    }

    #[test]
    fn fault_spike_spec_parses_attempt_and_milliseconds() {
        assert_eq!(
            parse_fault_spikes("8:40, 20:15").unwrap(),
            vec![(8, 40_000_000), (20, 15_000_000)]
        );
        assert!(parse_fault_spikes("8").is_err());
        assert!(parse_fault_spikes("8:ms").is_err());
    }

    #[test]
    fn serve_bench_rejects_swap_flags_without_a_registry() {
        for flag in ["--swap-at", "--swap-to", "--swap-fault"] {
            let f = flags(&["--checkpoint-dir", "ckpts", flag, "1"]).unwrap();
            let err = cmd_serve_bench(&f).unwrap_err();
            assert!(err.contains(flag) && err.contains("--registry"), "{flag}: {err}");
        }
    }

    #[test]
    fn net_config_flags_override_defaults() {
        let f = flags(&[
            "--addr",
            "0.0.0.0:8088",
            "--max-conns",
            "8",
            "--net-backlog",
            "32",
            "--idle-ms",
            "250",
            "--keep-alive",
            "16",
            "--api-keys",
            "bench:bench-key:200:50,limited:lim-key:2:2",
        ])
        .unwrap();
        let net = build_net_config(&f).unwrap();
        assert_eq!(net.addr, "0.0.0.0:8088");
        assert_eq!(net.max_conns, 8);
        assert_eq!(net.backlog, 32);
        assert_eq!(net.idle_timeout_ns, 250_000_000);
        assert_eq!(net.keep_alive_max, 16);
        assert_eq!(net.tenants.len(), 2);
        assert_eq!(net.tenants[0].key, "bench-key");
        assert_eq!(net.tenants[1].rate_per_sec, 2);
    }

    #[test]
    fn net_config_rejects_malformed_tenants() {
        let f = flags(&["--api-keys", "missing-fields"]).unwrap();
        assert!(build_net_config(&f).unwrap_err().contains("--api-keys"));
    }

    #[test]
    fn net_config_defaults_match_the_library() {
        let f = flags(&[]).unwrap();
        let net = build_net_config(&f).unwrap();
        let defaults = pup_serve::NetConfig::default();
        assert_eq!(net.addr, defaults.addr);
        assert_eq!(net.max_conns, defaults.max_conns);
        assert_eq!(net.idle_timeout_ns, defaults.idle_timeout_ns);
        assert!(net.tenants.is_empty());
    }

    #[test]
    fn model_kind_covers_all_names() {
        for name in ["pup", "itempop", "bprmf", "padq", "fm", "deepfm", "gcmc", "ngcf"] {
            let f = flags(&["--model", name]).unwrap();
            assert!(model_kind(&f).is_ok(), "{name} should parse");
        }
        let f = flags(&["--model", "svd++"]).unwrap();
        assert!(model_kind(&f).is_err());
    }
}
