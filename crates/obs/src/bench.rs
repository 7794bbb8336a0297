//! Append-only benchmark trajectory files and regression diffing.
//!
//! `BENCH_<target>.json` files record one entry per bench run, newest
//! last (`pup-bench/2`), so a regression shows up as history instead of
//! silently overwriting the baseline. The writer lives in `pup-bench`
//! (it consumes Criterion results); this module owns the schema's read
//! side and the last-two-entries diff that `pup bench-diff` and CI
//! gates consume.

use crate::json::Value;

/// One measured benchmark case inside a [`BenchEntry`].
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCase {
    /// Criterion group the case belongs to.
    pub group: String,
    /// Case name within the group.
    pub name: String,
    /// Median wall-clock nanoseconds per invocation.
    pub median_ns: u64,
    /// Fastest timed run.
    pub min_ns: u64,
    /// Slowest timed run.
    pub max_ns: u64,
    /// Timed runs behind the statistics (warm-up excluded).
    pub samples: u64,
}

/// One bench run's worth of cases in a [`BenchTrajectory`].
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Position in the trajectory, 0-based and append-ordered.
    pub seq: u64,
    /// Cases measured by this run, in run order.
    pub cases: Vec<BenchCase>,
}

/// The append-only history a `BENCH_<target>.json` file accumulates.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchTrajectory {
    /// Bench target (`serving`, `training`, ...).
    pub target: String,
    /// Every recorded run, oldest first.
    pub entries: Vec<BenchEntry>,
}

/// Regression verdict for one case across the last two trajectory entries.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseDiff {
    /// Criterion group of the compared case.
    pub group: String,
    /// Case name within the group.
    pub name: String,
    /// Median of the previous entry, nanoseconds; `None` if the case is new.
    pub before_ns: Option<u64>,
    /// Median of the latest entry, nanoseconds; `None` if the case vanished.
    pub after_ns: Option<u64>,
    /// `after / before` where both sides exist: >1 is a slowdown.
    pub ratio: Option<f64>,
}

impl CaseDiff {
    /// Whether this case slowed down past the given threshold
    /// (e.g. `0.10` = fail on a >10% median regression).
    pub fn regressed(&self, threshold: f64) -> bool {
        self.ratio.is_some_and(|r| r > 1.0 + threshold)
    }
}

/// Parses a `pup-bench/2` `BENCH_<target>.json` file into its trajectory.
pub fn read_bench_trajectory(path: &std::path::Path) -> Result<BenchTrajectory, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    read_bench_trajectory_str(&text)
}

/// [`read_bench_trajectory`] over already-loaded text.
pub fn read_bench_trajectory_str(text: &str) -> Result<BenchTrajectory, String> {
    let doc = Value::parse(text)?;
    let target = doc
        .get("target")
        .and_then(Value::as_str)
        .ok_or_else(|| "bench json lacks a `target`".to_string())?
        .to_string();
    let schema = doc.get("schema").and_then(Value::as_str);
    if schema != Some("pup-bench/2") {
        return Err(format!("unsupported bench schema {schema:?}"));
    }
    let Some(Value::Arr(arr)) = doc.get("entries") else {
        return Err("pup-bench/2 json lacks an `entries` array".to_string());
    };
    let entries = arr
        .iter()
        .enumerate()
        .map(|(i, e)| {
            Ok(BenchEntry {
                seq: e.get("seq").and_then(Value::as_u64).unwrap_or(i as u64),
                cases: parse_cases(e)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(BenchTrajectory { target, entries })
}

fn parse_cases(obj: &Value) -> Result<Vec<BenchCase>, String> {
    let arr = match obj.get("cases") {
        Some(Value::Arr(a)) => a,
        _ => return Err("bench json entry lacks a `cases` array".to_string()),
    };
    arr.iter()
        .map(|c| {
            let field = |k: &str| {
                c.get(k).and_then(Value::as_u64).ok_or_else(|| format!("case lacks `{k}`"))
            };
            Ok(BenchCase {
                group: c.get("group").and_then(Value::as_str).unwrap_or_default().to_string(),
                name: c
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| "case lacks `name`".to_string())?
                    .to_string(),
                median_ns: field("median_ns")?,
                min_ns: field("min_ns")?,
                max_ns: field("max_ns")?,
                samples: field("samples")?,
            })
        })
        .collect()
}

/// Compares the last two entries of a trajectory case by case. Cases are
/// matched on `(group, name)`; ones present on only one side report a
/// one-sided diff with no ratio. Errors if the trajectory holds fewer than
/// two entries — there is nothing to diff yet.
pub fn diff_last_two(traj: &BenchTrajectory) -> Result<Vec<CaseDiff>, String> {
    let n = traj.entries.len();
    if n < 2 {
        return Err(format!(
            "need at least two bench entries to diff, found {n}; run the bench again to append one"
        ));
    }
    let before = &traj.entries[n - 2].cases;
    let after = &traj.entries[n - 1].cases;
    let mut diffs: Vec<CaseDiff> = after
        .iter()
        .map(|a| {
            let prev = before.iter().find(|b| b.group == a.group && b.name == a.name);
            CaseDiff {
                group: a.group.clone(),
                name: a.name.clone(),
                before_ns: prev.map(|b| b.median_ns),
                after_ns: Some(a.median_ns),
                ratio: prev.map(|b| a.median_ns as f64 / (b.median_ns.max(1)) as f64),
            }
        })
        .collect();
    for b in before {
        if !after.iter().any(|a| a.group == b.group && a.name == b.name) {
            diffs.push(CaseDiff {
                // pup-lint: allow(clone-in-loop) — one small string pair per vanished case.
                group: b.group.clone(),
                // pup-lint: allow(clone-in-loop)
                name: b.name.clone(),
                before_ns: Some(b.median_ns),
                after_ns: None,
                ratio: None,
            });
        }
    }
    Ok(diffs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_matches_cases_and_reports_one_sided_entries() {
        let case = |name: &str, median_ns: u64| BenchCase {
            group: "g".to_string(),
            name: name.to_string(),
            median_ns,
            min_ns: median_ns,
            max_ns: median_ns,
            samples: 3,
        };
        let traj = BenchTrajectory {
            target: "t".to_string(),
            entries: vec![
                BenchEntry { seq: 0, cases: vec![case("stable", 100), case("gone", 50)] },
                BenchEntry { seq: 1, cases: vec![case("stable", 130), case("new", 10)] },
            ],
        };
        let diffs = diff_last_two(&traj).expect("diffs");
        assert_eq!(diffs.len(), 3);
        let stable = diffs.iter().find(|d| d.name == "stable").expect("stable");
        assert!(stable.regressed(0.25), "30% slower trips a 25% threshold");
        assert!(!stable.regressed(0.35));
        let new = diffs.iter().find(|d| d.name == "new").expect("new");
        assert_eq!((new.before_ns, new.after_ns), (None, Some(10)));
        assert!(!new.regressed(0.0), "a new case cannot regress");
        let gone = diffs.iter().find(|d| d.name == "gone").expect("gone");
        assert_eq!((gone.before_ns, gone.after_ns), (Some(50), None));
    }

    #[test]
    fn single_entry_trajectory_refuses_to_diff() {
        let traj = BenchTrajectory {
            target: "t".to_string(),
            entries: vec![BenchEntry { seq: 0, cases: vec![] }],
        };
        assert!(diff_last_two(&traj).unwrap_err().contains("at least two"));
    }
}
