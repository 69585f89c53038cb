//! Vendored stand-in for the `criterion` crate: the same macro/group/bencher
//! API shape, backed by a small calibrated timing loop instead of the full
//! statistical machinery. Each benchmark prints one stable line:
//!
//! ```text
//! bench: <group>/<name> median_ns_per_iter <value>
//! ```
//!
//! so `cargo bench` output greps the same on every run. Calibration doubles
//! the iteration count until a sample takes ≥ ~2 ms, then the median of 9
//! timed samples is reported. Absolute numbers are comparable across runs on
//! the same machine, which is all the repo's trend tracking needs.

#![forbid(unsafe_code)]

use std::time::Instant;

pub use std::hint::black_box;

/// How batched inputs are grouped (accepted and ignored: every batch is
/// rebuilt per sample either way).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small inputs, many per batch.
    SmallInput,
    /// Large inputs, fewer per batch.
    LargeInput,
    /// One input per measured iteration.
    PerIteration,
}

/// Declares what one iteration processes, for throughput lines.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

const SAMPLES: usize = 9;
const TARGET_SAMPLE_NS: u128 = 2_000_000;
const MAX_CALIBRATION_ITERS: u64 = 1 << 22;

/// Times one closure invocation over `iters` iterations, in ns.
fn time<F: FnMut()>(iters: u64, mut f: F) -> u128 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos()
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// The per-benchmark measurement handle.
pub struct Bencher {
    median_ns_per_iter: f64,
}

impl Bencher {
    /// Measures `routine`, timing batches of calibrated size.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let mut iters = 1u64;
        loop {
            let ns = time(iters, || {
                black_box(routine());
            });
            if ns >= TARGET_SAMPLE_NS || iters >= MAX_CALIBRATION_ITERS {
                break;
            }
            iters *= 2;
        }
        let samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let ns = time(iters, || {
                    black_box(routine());
                });
                ns as f64 / iters as f64
            })
            .collect();
        self.median_ns_per_iter = median(samples);
    }

    /// Measures `routine` over inputs built by `setup`; setup time is
    /// excluded by building each batch before the clock starts.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let mut iters = 1u64;
        loop {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            let ns = start.elapsed().as_nanos();
            if ns >= TARGET_SAMPLE_NS || iters >= MAX_CALIBRATION_ITERS {
                break;
            }
            iters *= 2;
        }
        let samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
                let start = Instant::now();
                for input in inputs {
                    black_box(routine(input));
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        self.median_ns_per_iter = median(samples);
    }
}

fn run_one<F: FnMut(&mut Bencher)>(id: &str, filter: Option<&str>, mut f: F) {
    if let Some(needle) = filter {
        if !id.contains(needle) {
            return;
        }
    }
    let mut b = Bencher {
        median_ns_per_iter: f64::NAN,
    };
    f(&mut b);
    println!("bench: {id} median_ns_per_iter {:.1}", b.median_ns_per_iter);
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    /// Declares per-iteration throughput (accepted, not printed).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Sets the sample count (accepted; the stub's count is fixed).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let id = format!("{}/{}", self.name, name);
        run_one(&id, self.criterion.filter.as_deref(), f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// The harness entry point, holding the CLI filter.
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench` appends `--bench`; any non-flag argument is a
        // substring filter, as with real criterion.
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'));
        Self { filter }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            criterion: self,
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_one(name, self.filter.as_deref(), f);
        self
    }
}

/// Declares a function that runs a list of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's `main`.
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
    fn bencher_measures_something() {
        let mut b = Bencher {
            median_ns_per_iter: f64::NAN,
        };
        b.iter(|| black_box(1u64 + 1));
        assert!(b.median_ns_per_iter.is_finite());
        assert!(b.median_ns_per_iter >= 0.0);
    }

    #[test]
    fn iter_batched_measures_routine_only() {
        let mut b = Bencher {
            median_ns_per_iter: f64::NAN,
        };
        b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput);
        assert!(b.median_ns_per_iter.is_finite());
    }
}
