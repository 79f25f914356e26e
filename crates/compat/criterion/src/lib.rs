//! Offline stand-in for the subset of the `criterion` API this workspace
//! uses: `Criterion`, benchmark groups, `BenchmarkId`, `Bencher::iter`,
//! `black_box`, and the `criterion_group!`/`criterion_main!` macros.
//!
//! Measurement is deliberately simple — a short warmup followed by a fixed
//! number of timed samples, reporting min/median/mean wall-clock time per
//! iteration — which is enough for the relative comparisons the benches in
//! this repository make. Results are printed as text; there is no HTML
//! report, statistical regression, or outlier analysis.
//!
//! `BENCH_QUICK=1` clamps every benchmark to 3 samples so a full target
//! finishes in seconds.

use std::fmt;
use std::time::{Duration, Instant};

/// Samples per benchmark under `BENCH_QUICK=1`.
const QUICK_SAMPLES: usize = 3;

fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Prevents the optimizer from eliding a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 30,
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n# group: {name}");
        let sample_size = self.default_sample_size;
        BenchmarkGroup {
            _parent: self,
            name,
            sample_size,
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(name, self.default_sample_size, &mut f);
        self
    }
}

/// A named group sharing configuration (sample size).
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Benchmarks a closure parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.0);
        run_bench(&label, self.sample_size, &mut |b| f(b, input));
        self
    }

    /// Benchmarks an unparameterized closure inside the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into().0);
        run_bench(&label, self.sample_size, &mut f);
        self
    }

    /// Ends the group (no-op; provided for API compatibility).
    pub fn finish(self) {}
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id from a function name and a parameter.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId(format!("{name}/{parameter}"))
    }

    /// An id from the parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Timing handle passed to benchmark closures.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine`, recording per-iteration wall-clock durations.
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut routine: F) {
        // Warmup: one untimed call plus enough calls to estimate scale.
        black_box(routine());
        let t0 = Instant::now();
        black_box(routine());
        let est = t0.elapsed();
        // Batch very fast routines so timer resolution doesn't dominate.
        let batch = if est < Duration::from_micros(5) {
            (Duration::from_micros(50).as_nanos() / est.as_nanos().max(1)).max(1) as usize
        } else {
            1
        };
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.samples.push(start.elapsed() / batch as u32);
        }
    }
}

fn run_bench(label: &str, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let sample_size = if quick_mode() {
        sample_size.min(QUICK_SAMPLES)
    } else {
        sample_size
    };
    let mut b = Bencher {
        samples: Vec::new(),
        sample_size,
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{label:<40}  (no samples)");
        return;
    }
    b.samples.sort_unstable();
    let min = b.samples[0];
    let median = b.samples[b.samples.len() / 2];
    let mean = b.samples.iter().sum::<Duration>() / b.samples.len() as u32;
    println!(
        "{label:<40}  min {:>10}  median {:>10}  mean {:>10}  ({} samples)",
        fmt_duration(min),
        fmt_duration(median),
        fmt_duration(mean),
        b.samples.len(),
    );
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Bundles benchmark functions into one runner, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `fn main` running the given groups.
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
    fn bench_records_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.sample_size(5);
        let mut acc = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(7), &7u64, |b, &n| {
            b.iter(|| {
                acc = acc.wrapping_add(n);
                acc
            });
        });
        group.finish();
        c.bench_function("standalone", |b| b.iter(|| black_box(2 + 2)));
    }

    #[test]
    fn quick_mode_clamps_the_sample_count() {
        std::env::set_var("BENCH_QUICK", "1");
        let mut samples = 0;
        Criterion::default().bench_function("quick_smoke", |b| {
            b.iter(|| black_box(1 + 1));
            samples = b.samples.len();
        });
        std::env::remove_var("BENCH_QUICK");
        assert_eq!(samples, QUICK_SAMPLES);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
    }
}
