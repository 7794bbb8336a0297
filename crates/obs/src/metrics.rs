//! Metric primitives: fixed-bucket histograms and gauge statistics.
//!
//! Histograms use a fixed log-spaced bucket layout (a 1-2-5 series spanning
//! `1e-9 ..= 1e12`) so that a single scheme covers both nanosecond timings
//! and unit-scale training metrics without per-histogram configuration.
//! Quantiles are answered by linear interpolation *within* the bucket the
//! rank falls in, with the interpolation range clamped to the observed
//! `[min, max]` — that keeps the empty / single-sample / saturating edge
//! cases exact (see the unit tests at the bottom of this file) while
//! avoiding the up-to-2.5× error of snapping to a 1-2-5 bucket bound,
//! which matters at serve-latency scale where p99 gates a CI check.
//!
//! Histograms can also carry **tail exemplars**: when an observation is
//! tagged with a trace id ([`Histogram::observe_traced`]), each bucket
//! remembers the slowest observation that landed in it, so a report can
//! jump from a p99 bucket straight to the stitched trace of the request
//! that produced it.

use std::sync::OnceLock;

/// Smallest decade covered by the shared bucket layout (`1e-9`).
const DECADE_MIN: i32 = -9;
/// Largest decade covered by the shared bucket layout (`1e12`).
const DECADE_MAX: i32 = 12;
/// Sub-decade steps of the 1-2-5 series.
const STEPS: [f64; 3] = [1.0, 2.0, 5.0];

/// Upper bounds of the shared bucket layout, ascending. Values above the
/// last bound land in a final overflow bucket.
pub fn bucket_bounds() -> &'static [f64] {
    static BOUNDS: OnceLock<Vec<f64>> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut bounds = Vec::new();
        for decade in DECADE_MIN..=DECADE_MAX {
            for step in STEPS {
                bounds.push(step * 10f64.powi(decade));
            }
        }
        bounds
    })
}

/// Summary statistics exported for a histogram (what the JSONL sink writes).
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Median estimate (bucket upper bound clamped to `[min, max]`).
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl HistSummary {
    /// Arithmetic mean of the observations (exact: `sum / count`, unlike
    /// the bucket-estimated quantiles).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The slowest traced observation that landed in one bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// Upper bound of the bucket, or `None` for the overflow bucket.
    pub le: Option<f64>,
    /// The observed value.
    pub value: f64,
    /// Trace id the observation was tagged with.
    pub trace: u64,
}

/// A fixed-bucket histogram over the shared 1-2-5 log layout.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Per-bucket `(value, trace)` of the largest traced observation;
    /// empty until the first [`Histogram::observe_traced`] call so
    /// untraced histograms pay nothing.
    exemplars: Vec<Option<(f64, u64)>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; bucket_bounds().len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            exemplars: Vec::new(),
        }
    }

    /// Record one observation. Values at or below the smallest bound land in
    /// the first bucket; values above the largest bound land in the overflow
    /// bucket (quantiles still report exact extremes via the min/max clamp).
    /// `NaN` is treated as `0.0` so a poisoned metric cannot poison the sink.
    pub fn observe(&mut self, value: f64) {
        let v = if value.is_nan() { 0.0 } else { value };
        let idx = Self::bucket_index(v);
        // pup-audit: allow(hotpath-panic): partition_point over bounds is at most bounds.len(); counts has one overflow slot
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// [`Histogram::observe`], additionally tagging the observation with a
    /// trace id so its bucket can retain it as a tail exemplar. Each bucket
    /// keeps the largest traced value seen.
    pub fn observe_traced(&mut self, value: f64, trace: u64) {
        self.observe(value);
        let v = if value.is_nan() { 0.0 } else { value };
        let idx = Self::bucket_index(v);
        if self.exemplars.is_empty() {
            self.exemplars = vec![None; self.counts.len()];
        }
        // pup-audit: allow(hotpath-panic): bucket_index is bounded by the layout; exemplars was just sized to match counts
        let slot = &mut self.exemplars[idx];
        if slot.is_none_or(|(existing, _)| v > existing) {
            *slot = Some((v, trace));
        }
    }

    /// Tail exemplars in bucket order: the slowest traced observation per
    /// bucket. Empty unless [`Histogram::observe_traced`] was used.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let bounds = bucket_bounds();
        self.exemplars
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| {
                slot.map(|(value, trace)| Exemplar { le: bounds.get(idx).copied(), value, trace })
            })
            .collect()
    }

    /// Bucket index for a (NaN-sanitized) value.
    fn bucket_index(v: f64) -> usize {
        bucket_bounds().partition_point(|&b| b < v)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Quantile estimate for `q` in `[0, 1]`, or `None` for an empty
    /// histogram. The rank is located in its bucket and the answer is
    /// linearly interpolated within that bucket, with the interpolation
    /// range clamped to the observed `[min, max]` — so a single-sample
    /// histogram reports that sample exactly, an overflow-saturated
    /// histogram reports the true max, and a rank deep inside a wide
    /// 1-2-5 bucket no longer snaps to the bucket's upper bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let bounds = bucket_bounds();
        let mut cumulative = 0u64;
        for (idx, n) in self.counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= target && *n > 0 {
                let upper = bounds.get(idx).copied().unwrap_or(f64::INFINITY).min(self.max);
                let lower = if idx == 0 { self.min } else { bounds[idx - 1].max(self.min) };
                let lower = lower.min(upper);
                let before = cumulative - n;
                let frac = (target - before) as f64 / *n as f64;
                return Some((lower + frac * (upper - lower)).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Export the summary the sinks serialize, or `None` if empty.
    pub fn summary(&self) -> Option<HistSummary> {
        if self.count == 0 {
            return None;
        }
        Some(HistSummary {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50: self.quantile(0.50)?,
            p95: self.quantile(0.95)?,
            p99: self.quantile(0.99)?,
        })
    }
}

/// Last/min/max/n statistics for a gauge (a set-valued metric).
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeStat {
    /// Most recently set value.
    pub last: f64,
    /// Smallest value ever set.
    pub min: f64,
    /// Largest value ever set.
    pub max: f64,
    /// Number of times the gauge was set.
    pub n: u64,
}

impl GaugeStat {
    /// Stat for a gauge observed once with `value`.
    pub fn first(value: f64) -> Self {
        GaugeStat { last: value, min: value, max: value, n: 1 }
    }

    /// Fold in a new setting of the gauge.
    pub fn set(&mut self, value: f64) {
        self.last = value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.n += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert!(h.summary().is_none());
        assert_eq!(h.count, 0);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.observe(3.7);
        let s = h.summary().unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, 3.7);
        assert_eq!(s.p95, 3.7);
        assert_eq!(s.p99, 3.7);
        assert_eq!(s.min, 3.7);
        assert_eq!(s.max, 3.7);
    }

    #[test]
    fn saturating_values_clamp_to_observed_max() {
        let mut h = Histogram::new();
        // Far above the last bucket bound of 5e12.
        h.observe(9.0e30);
        h.observe(8.0e30);
        let s = h.summary().unwrap();
        assert_eq!(s.p99, 9.0e30);
        assert_eq!(s.max, 9.0e30);
        assert_eq!(s.min, 8.0e30);
    }

    #[test]
    fn underflow_and_negative_values_clamp_to_observed_min() {
        let mut h = Histogram::new();
        h.observe(-2.5);
        h.observe(0.0);
        // Both samples collapse into the underflow bucket; quantile
        // estimates stay inside the observed range.
        let s = h.summary().unwrap();
        assert_eq!(s.min, -2.5);
        assert_eq!(s.max, 0.0);
        for q in [s.p50, s.p95, s.p99] {
            assert!((-2.5..=0.0).contains(&q), "quantile {q} outside observed range");
        }
        assert_eq!(h.count, 2);
    }

    #[test]
    fn nan_is_folded_to_zero_not_propagated() {
        let mut h = Histogram::new();
        h.observe(f64::NAN);
        h.observe(4.0);
        let s = h.summary().unwrap();
        assert_eq!(s.count, 2);
        assert!(s.sum.is_finite());
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn quantiles_order_on_spread_data() {
        let mut h = Histogram::new();
        for i in 1..=1000u32 {
            h.observe(f64::from(i));
        }
        let s = h.summary().unwrap();
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert!(s.p50 >= 400.0 && s.p50 <= 600.0, "p50 {}", s.p50);
        assert!(s.p99 >= 900.0, "p99 {}", s.p99);
        assert_eq!(s.count, 1000);
    }

    #[test]
    fn interpolated_quantiles_beat_bucket_bound_snapping() {
        // Uniform 1..=1000: the exact k-th percentile is k*10. The old
        // estimator snapped to the bucket upper bound (1000 for any rank
        // inside the (500, 1000] bucket — a 10-unit error at p99 and a
        // 300-unit error at p70); interpolation pins them near-exactly.
        let mut h = Histogram::new();
        for i in 1..=1000u32 {
            h.observe(f64::from(i));
        }
        let cases = [(0.50, 500.0), (0.70, 700.0), (0.95, 950.0), (0.99, 990.0)];
        for (q, exact) in cases {
            let est = h.quantile(q).unwrap();
            let err = (est - exact).abs();
            assert!(err <= 5.0, "q={q}: estimate {est} vs exact {exact} (err {err})");
        }
        // Regression pin: bucket-bound snapping would report 1000.0 at
        // p70 (error 300); interpolation must stay under 1% of range.
        assert!((h.quantile(0.70).unwrap() - 700.0).abs() < 10.0);
    }

    #[test]
    fn traced_observations_retain_tail_exemplars() {
        let mut h = Histogram::new();
        h.observe(3.0); // untraced: no exemplar
        h.observe_traced(30.0, 7);
        h.observe_traced(45.0, 8); // same bucket (20, 50], slower — wins
        h.observe_traced(0.4, 9);
        let ex = h.exemplars();
        assert_eq!(ex.len(), 2);
        let slow = ex.iter().find(|e| e.value == 45.0).expect("slow exemplar");
        assert_eq!(slow.trace, 8);
        assert_eq!(slow.le, Some(50.0));
        let fast = ex.iter().find(|e| e.value == 0.4).expect("fast exemplar");
        assert_eq!(fast.trace, 9);
        assert_eq!(fast.le, Some(0.5));
        assert_eq!(h.count, 4);
    }

    #[test]
    fn overflow_exemplar_has_no_upper_bound() {
        let mut h = Histogram::new();
        h.observe_traced(9.0e30, 3);
        let ex = h.exemplars();
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].le, None);
        assert_eq!(ex[0].trace, 3);
    }

    #[test]
    fn gauge_tracks_last_min_max() {
        let mut g = GaugeStat::first(2.0);
        g.set(5.0);
        g.set(1.0);
        assert_eq!(g.last, 1.0);
        assert_eq!(g.min, 1.0);
        assert_eq!(g.max, 5.0);
        assert_eq!(g.n, 3);
    }

    #[test]
    fn bucket_bounds_are_sorted_and_positive() {
        let b = bucket_bounds();
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!(b[0] > 0.0);
    }
}
