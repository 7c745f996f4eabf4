//! A small, dependency-free, offline stand-in for the `criterion` crate.
//!
//! The build environment for this workspace cannot reach crates.io, so this crate
//! provides the subset of criterion's API the workspace benches use —
//! [`Criterion`], benchmark groups, [`BenchmarkId`], `iter`, [`black_box`] and the
//! [`criterion_group!`] / [`criterion_main!`] macros — with a simple timing loop
//! instead of criterion's statistical machinery. Each benchmark runs a short
//! warm-up followed by a fixed measurement window and prints the mean iteration
//! time.
//!
//! Passing `--smoke` after `--` (`cargo bench -p recon-bench --bench charpoly --
//! --smoke`) shrinks the measurement window to a few milliseconds and caps the
//! iteration count, so CI can execute every benchmark body end to end as a
//! regression smoke test without paying full measurement time.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// `true` when the benchmark binary was invoked with `--smoke`: run every
/// routine, but with a minimal measurement window.
pub fn smoke_mode() -> bool {
    static SMOKE: OnceLock<bool> = OnceLock::new();
    *SMOKE.get_or_init(|| std::env::args().any(|arg| arg == "--smoke"))
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A benchmark named `name`, parameterized by `parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        Self { id: format!("{}/{}", name.into(), parameter) }
    }

    /// A benchmark identified by its parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self { id: parameter.to_string() }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// Passed to the benchmark closure; drives the measured iterations.
#[derive(Debug, Default)]
pub struct Bencher {
    mean: Option<Duration>,
    iterations: u64,
}

impl Bencher {
    /// Measure `routine` over a warm-up pass and a short measurement window
    /// (or a near-instant one under [`smoke_mode`]).
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up: one untimed call (also gives a scale for the window).
        let warm_start = Instant::now();
        black_box(routine());
        let first = warm_start.elapsed();

        let (window, max_iterations) = if smoke_mode() {
            (Duration::from_millis(5), 10)
        } else {
            (Duration::from_millis(200).max(first), 1_000_000)
        };
        let start = Instant::now();
        let mut iterations = 0u64;
        while start.elapsed() < window && iterations < max_iterations {
            black_box(routine());
            iterations += 1;
        }
        self.mean = Some(start.elapsed() / iterations.max(1) as u32);
        self.iterations = iterations;
    }
}

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

fn run_one(label: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut bencher = Bencher::default();
    f(&mut bencher);
    match bencher.mean {
        Some(mean) => {
            println!("{label:<60} {mean:>12.2?} / iter  ({} iters)", bencher.iterations)
        }
        None => println!("{label:<60} (no measurement: closure never called iter)"),
    }
}

impl Criterion {
    /// Run a stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(name, &mut f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { _parent: self, name: name.into() }
    }
}

/// A named group of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for compatibility; the shim's fixed measurement window ignores it.
    pub fn sample_size(&mut self, _samples: usize) -> &mut Self {
        self
    }

    /// Run a benchmark within the group.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&format!("{}/{}", self.name, id), &mut f);
        self
    }

    /// Run a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_one(&format!("{}/{}", self.name, id), &mut |b| f(b, input));
        self
    }

    /// End the group (no-op; exists for API compatibility).
    pub fn finish(self) {}
}

/// Collect benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Produce a `main` that runs the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        let mut group = c.benchmark_group("group");
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("param", 4), &4u64, |b, &x| {
            b.iter(|| black_box(x * 2))
        });
        group.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn harness_runs() {
        benches();
    }

    #[test]
    fn ids_format() {
        assert_eq!(BenchmarkId::new("a", 3).to_string(), "a/3");
        assert_eq!(BenchmarkId::from_parameter(7).to_string(), "7");
    }
}
