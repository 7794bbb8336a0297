//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build environment has no access to crates.io, so this shim keeps the
//! workspace's `[[bench]]` targets compiling and runnable with the subset of
//! the criterion 0.5 API they use: [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`] / [`BenchmarkGroup::bench_with_input`],
//! [`Bencher::iter`] / [`Bencher::iter_custom`], [`BenchmarkId`] and the `criterion_group!` /
//! `criterion_main!` macros.
//!
//! Measurement is intentionally simple — median of `sample_size` wall-clock
//! samples after one warm-up — with results printed to stdout. There is no
//! statistical analysis, HTML report, or baseline comparison.
//!
//! Beyond the criterion API, every finished benchmark is also recorded as a
//! [`CaseResult`] in a process-wide buffer that a bench target's `main` can
//! drain with [`take_results`] to emit machine-readable output (see
//! `pup_bench::harness::write_bench_json`).

use std::fmt::Display;
use std::hint;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Summary of one finished benchmark case, in nanoseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseResult {
    /// Group name passed to [`Criterion::benchmark_group`].
    pub group: String,
    /// Case label within the group (rendered [`BenchmarkId`]).
    pub label: String,
    /// Median of the timed samples.
    pub median_ns: u128,
    /// Fastest timed sample.
    pub min_ns: u128,
    /// Slowest timed sample.
    pub max_ns: u128,
    /// Number of timed samples (warm-up excluded).
    pub samples: usize,
}

static RESULTS: Mutex<Vec<CaseResult>> = Mutex::new(Vec::new());

fn record(result: CaseResult) {
    // A panic inside someone else's bench routine may have poisoned the
    // lock; the buffer itself is still valid, so keep collecting.
    let mut results = RESULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    results.push(result);
}

/// Drains and returns every [`CaseResult`] recorded so far, in run order.
///
/// Bench targets with an explicit `main` call this after running their
/// groups to serialize the results (the buffer is process-global, so call
/// it once, after all groups have finished).
pub fn take_results() -> Vec<CaseResult> {
    let mut results = RESULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    std::mem::take(&mut *results)
}

/// Re-export matching `criterion::black_box` (benches may import either
/// this or `std::hint::black_box`).
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { _parent: self, name: name.into(), sample_size: 10 }
    }

    /// Runs a single benchmark outside any group.
    pub fn bench_function(
        &mut self,
        name: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let name = name.into();
        let mut group = self.benchmark_group(name.clone());
        group.bench_function(name, |b| f(b));
        group.finish();
        self
    }
}

/// Identifies one benchmark within a group: a function name plus a
/// parameter rendered into the label.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        Self { label: format!("{}/{}", function_name.into(), parameter) }
    }

    /// Identifier from a parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self { label: parameter.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        Self { label }
    }
}

impl From<&str> for BenchmarkId {
    fn from(label: &str) -> Self {
        Self { label: label.to_string() }
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples to collect per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        let mut bencher = Bencher {
            samples: Vec::with_capacity(self.sample_size),
            sample_size: self.sample_size,
        };
        f(&mut bencher);
        bencher.report(&self.name, &id.label);
        self
    }

    /// Runs one benchmark with an explicit input value.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (upstream finalizes reports here; the shim prints
    /// per-benchmark, so this is a no-op).
    pub fn finish(&mut self) {}
}

/// Collects timing samples for one benchmark.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `sample_size` runs of `routine` after one warm-up run.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        hint::black_box(routine()); // warm-up
        for _ in 0..self.sample_size {
            let start = Instant::now();
            hint::black_box(routine());
            self.samples.push(start.elapsed());
        }
    }

    /// Times `sample_size` samples, each the [`Duration`] `routine` reports
    /// for one iteration (its argument, always 1 here), after one warm-up.
    /// The routine times only what it means to measure, so set-up such as
    /// a pause between iterations stays out of the sample.
    pub fn iter_custom(&mut self, mut routine: impl FnMut(u64) -> Duration) {
        hint::black_box(routine(1)); // warm-up
        for _ in 0..self.sample_size {
            self.samples.push(routine(1));
        }
    }

    fn report(&mut self, group: &str, label: &str) {
        if self.samples.is_empty() {
            println!("{group}/{label}: no samples (Bencher::iter never called)");
            return;
        }
        self.samples.sort_unstable();
        let median = self.samples[self.samples.len() / 2];
        let (min, max) = (self.samples[0], self.samples[self.samples.len() - 1]);
        println!(
            "{group}/{label}: median {median:?} (min {min:?}, max {max:?}, n={})",
            self.samples.len()
        );
        record(CaseResult {
            group: group.to_string(),
            label: label.to_string(),
            median_ns: median.as_nanos(),
            min_ns: min.as_nanos(),
            max_ns: max.as_nanos(),
            samples: self.samples.len(),
        });
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        #[allow(missing_docs)]
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut runs = 0usize;
        group.bench_function(BenchmarkId::new("count", 1), |b| {
            b.iter(|| runs += 1);
        });
        group.finish();
        // One warm-up + three timed samples.
        assert_eq!(runs, 4);
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(2);
        let mut seen = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(7), &21u64, |b, &x| {
            b.iter(|| seen = x * 2);
        });
        assert_eq!(seen, 42);
    }

    #[test]
    fn results_are_recorded_and_drained() {
        // The buffer is process-global; other tests in this binary may also
        // record, so look for our uniquely named case rather than asserting
        // on the full contents.
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("take_results_test");
        group.sample_size(3);
        group.bench_function("recorded_case", |b| b.iter(|| hint::black_box(1 + 1)));
        group.finish();
        let results = take_results();
        let case = results
            .iter()
            .find(|r| r.group == "take_results_test" && r.label == "recorded_case")
            .expect("bench case should have been recorded");
        assert_eq!(case.samples, 3);
        assert!(case.min_ns <= case.median_ns && case.median_ns <= case.max_ns);
        // Drained: a second take must not see it again.
        assert!(!take_results()
            .iter()
            .any(|r| r.group == "take_results_test" && r.label == "recorded_case"));
    }
}
