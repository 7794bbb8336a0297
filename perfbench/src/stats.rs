//! Order statistics, digests and the result line.

use std::fmt::Write as _;

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (the mean of the middle two for an even
/// count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let n = values.len();
    if n % 2 == 1 || n == 0 {
        return quantile(values, 0.5);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
}

/// The `q`-quantile of each of `windows` consecutive, equal windows of
/// `values`.
pub fn per_window(values: &[f64], windows: usize, q: f64) -> Vec<f64> {
    let per = values.len().div_ceil(windows.max(1)).max(1);
    values.chunks(per).map(|w| quantile(w, q)).collect()
}

/// The arithmetic mean of `values`; 0 when empty.
///
/// A run reports a latency as the mean over its windows of each window's
/// quantile. On the shared 2-vCPU host the benchmark was tuned on, a
/// co-tenant's load switches on and off every few seconds and slows
/// compute by up to 1.5x while it lasts. The median of the windows jumps
/// between the two speeds as the share of slowed windows crosses one half;
/// the mean follows that share smoothly.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The smallest of `values`; 0 when empty.
///
/// train-eval reports its fastest epoch and its fastest ranking stop. Its
/// work is single-threaded compute that a co-tenant on the shared 2-vCPU
/// host slows by up to 2x, in spells that can outlast a whole run, so a
/// median over one run follows the co-tenant. The fastest of 32 short
/// samples spread over the run is the least-contended one, and moves with
/// the program.
pub fn min(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// FNV-1a 64 over `bytes`, continuing from `hash` (start with [`FNV_SEED`]).
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64 offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json` or the record.
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Builds a [`Metric`].
pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.to_string(), unit, value }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Requests (or evaluated users) attempted in the measured phases.
    pub attempted: u64,
    /// Attempts that failed or returned a wrong answer.
    pub failed: u64,
    /// The metrics of the final line (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Per-workload metrics kept by name in the record line only.
    pub named: Vec<Metric>,
    /// Input and output digests for the same-seed self-check.
    pub digests: Vec<(String, String)>,
}

fn json_metrics(out: &mut String, metrics: &[Metric]) {
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(out, "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push('}');
}

impl RunResult {
    /// The `record:` line: named metrics and digests, for the result file.
    pub fn record_line(&self) -> String {
        let mut out = String::from("record: {\"named\": ");
        json_metrics(&mut out, &self.named);
        out.push_str(", \"digests\": {");
        for (i, (k, v)) in self.digests.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{k}\": \"{v}\"");
        }
        out.push_str("}}");
        out
    }

    /// The final result line the benchmark contract asks for.
    pub fn final_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        json_metrics(&mut out, &self.metrics);
        out.push('}');
        out
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Renders a layer table: each row's total, share of the whole, and the
/// unexplained residual.
pub fn layer_table(title: &str, whole: f64, rows: &[(&str, f64)]) -> (String, f64) {
    let mut out = format!("== {title} ==\n{:<24} {:>12} {:>8}\n", "layer", "total ms", "share");
    let mut explained = 0.0;
    for (name, v) in rows {
        explained += v;
        let share = if whole > 0.0 { v / whole } else { 0.0 };
        let _ = writeln!(out, "{name:<24} {:>12.3} {:>7.2}%", v / 1e6, share * 100.0);
    }
    let residual = whole - explained;
    let residual_share = if whole > 0.0 { residual / whole } else { 0.0 };
    let _ = writeln!(
        out,
        "{:<24} {:>12.3} {:>7.2}%\n{:<24} {:>12.3}",
        "(residual)",
        residual / 1e6,
        residual_share * 100.0,
        "(whole)",
        whole / 1e6
    );
    (out, residual_share)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[1.0, 4.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let windows = [1.0, 1.0, 1.0, 9.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0];
        assert_eq!(per_window(&windows, 3, 1.0), vec![9.0, 2.0, 3.0]);
        assert_eq!(mean(&[5.0, 1.0, 2.0, 8.0]), 4.0);
        assert_eq!(min(&[5.0, 1.0, 2.0, 8.0]), 1.0);
        assert_eq!(min(&[]), 0.0);
    }
}
