//! Offline stand-in for the `criterion` crate (see
//! `crates/compat/README.md`).
//!
//! Provides `criterion_group!` / `criterion_main!`, benchmark groups, and
//! a [`Bencher`] that, per benchmark, runs a warmup pass followed by timed
//! sample batches and prints mean and minimum time per iteration. No
//! statistics beyond that, no HTML reports, no baseline storage — but the
//! bench *functions* compile, run, and give usable timings offline.

use std::time::{Duration, Instant};

/// Benchmark driver handed to the functions in `criterion_group!`.
pub struct Criterion {
    /// Default number of timed samples per benchmark.
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let group = name.into();
        println!("\n== group {group}");
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _criterion: self,
            group,
            sample_size,
        }
    }

    /// Runs a standalone benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.into().render(), self.sample_size, &mut f);
        self
    }
}

/// A named set of related benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    group: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for subsequent benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Measurement time is accepted for API compatibility and ignored.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = format!("{}/{}", self.group, id.into().render());
        run_benchmark(&name, self.sample_size, &mut f);
        self
    }

    /// Runs one benchmark parameterized by a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let name = format!("{}/{}", self.group, id.render());
        run_benchmark(&name, self.sample_size, &mut |b| f(b, input));
        self
    }

    /// Ends the group (upstream flushes reports here; nothing to do).
    pub fn finish(self) {}
}

/// A benchmark identifier: function name plus an optional parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    function: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// An id with a parameter, rendered `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            function: function.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    /// An id carrying only a parameter value.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            function: String::new(),
            parameter: Some(parameter.to_string()),
        }
    }

    fn render(&self) -> String {
        match (&self.function.is_empty(), &self.parameter) {
            (false, Some(p)) => format!("{}/{p}", self.function),
            (false, None) => self.function.clone(),
            (true, Some(p)) => p.clone(),
            (true, None) => String::new(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            function: s.to_string(),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId {
            function: s,
            parameter: None,
        }
    }
}

/// Runs the closure under timing and collects per-iteration durations.
pub struct Bencher {
    samples: Vec<Duration>,
    iters_per_sample: u64,
}

impl Bencher {
    /// Times `routine`, recording one sample per call batch.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters_per_sample {
            std::hint::black_box(routine());
        }
        self.samples
            .push(start.elapsed() / self.iters_per_sample as u32);
    }

    /// Times `routine` on a fresh input from `setup` per iteration. Only
    /// `routine` is timed: building and dropping the input are not.
    pub fn iter_batched_ref<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(&mut I) -> O,
    {
        let mut timed = Duration::ZERO;
        for _ in 0..self.iters_per_sample {
            let mut input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(&mut input));
            timed += start.elapsed();
        }
        self.samples.push(timed / self.iters_per_sample as u32);
    }
}

/// How many inputs `iter_batched_ref` prepares at once. Upstream uses
/// it to trade memory for timer overhead; here every input is built
/// right before its iteration.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs too large to hold many at once.
    LargeInput,
}

fn run_benchmark(name: &str, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) {
    // Calibration pass: also serves as warmup.
    let mut calib = Bencher {
        samples: Vec::new(),
        iters_per_sample: 1,
    };
    let t0 = Instant::now();
    f(&mut calib);
    let once = t0.elapsed().max(Duration::from_nanos(1));
    // Aim for ~20ms per sample, capped to keep total time bounded.
    let iters = (Duration::from_millis(20).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;

    let mut b = Bencher {
        samples: Vec::new(),
        iters_per_sample: iters,
    };
    for _ in 0..sample_size {
        f(&mut b);
    }
    if b.samples.is_empty() {
        println!("{name:<48} (no samples — bencher.iter never called)");
        return;
    }
    let mean: Duration = b.samples.iter().sum::<Duration>() / b.samples.len() as u32;
    let min = *b.samples.iter().min().expect("non-empty");
    println!(
        "{name:<48} mean {:>12?}  min {:>12?}  ({} samples x {} iters)",
        mean,
        min,
        b.samples.len(),
        iters
    );
}

/// Re-export spot for `black_box`; upstream criterion has its own.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a benchmark group: a runner function invoking each benchmark
/// function with a fresh `Criterion`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($fun:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $fun(&mut criterion); )+
        }
    };
}

/// Declares `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
