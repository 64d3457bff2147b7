//! # sjava-bench
//!
//! Shared harness for regenerating every table and figure of the
//! Self-Stabilizing Java evaluation (chapter 6). Each experiment has a
//! binary (`fig6_1`, `fig6_2`, `fig6_3`, `fig6_4`, `table6_1`,
//! `eval_eye`, `eval_robot`) and the timing-sensitive pieces also have
//! Criterion benches.

#![warn(missing_docs)]

pub mod fuzz;
pub mod stressgen;

use sjava_runtime::{compile, Campaign, ExecOptions, InputProvider, RecoveryStats, RunResult, Vm};
use sjava_syntax::ast::Program;

/// One error-injection trial against a shared golden run.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Trial seed.
    pub seed: u64,
    /// Step at which the injector fired (if it did).
    pub injected_at: Option<u64>,
    /// Recovery statistics vs the golden run.
    pub stats: RecoveryStats,
}

/// Runs the golden (error-free) execution of a benchmark.
pub fn run_golden<I: InputProvider>(
    program: &Program,
    entry: (&str, &str),
    inputs: I,
    iterations: usize,
) -> RunResult {
    Vm::new(&compile(program), inputs, ExecOptions::default())
        .run(entry.0, entry.1, iterations)
        .expect("golden run cannot fail in ignore-errors mode")
}

/// Runs trials with seeds `0..trials` against `golden` as a VM campaign
/// ([`Grid::MonteCarlo`](sjava_runtime::Grid::MonteCarlo)): per seed, the
/// trigger step is drawn uniformly from the first `inject_window`
/// fraction of the golden run's steps, and the kind alternates between
/// operation and heap errors. One compile, one checkpointed golden run,
/// one VM per `sjava_par` worker (`SJAVA_THREADS` overrides the width),
/// and per trial a restore of the golden run's last event-loop head
/// before the fault, run until the state rejoins the golden run.
/// `make_inputs` builds fresh inputs for the golden run and once per
/// worker. Results come back in seed order, so every
/// downstream aggregate (histograms, counters, CSV rows) is identical at
/// any thread count.
///
/// # Panics
///
/// If `golden` is not the golden run of this program, entry, input and
/// iteration count.
#[allow(clippy::too_many_arguments)]
pub fn run_trials<I, F>(
    program: &Program,
    entry: (&str, &str),
    make_inputs: F,
    iterations: usize,
    golden: &RunResult,
    trials: usize,
    inject_window: f64,
    eps: f64,
) -> Vec<Trial>
where
    I: InputProvider + Clone + Sync,
    F: Fn() -> I + Sync,
{
    let mut c = Campaign::new(program, entry, iterations);
    c.trials = trials;
    c.inject_window = inject_window;
    c.eps = eps;
    let out = c.run(make_inputs).expect("campaign entry must resolve");
    // Debug renderings, so NaN outputs compare equal to themselves.
    assert_eq!(
        format!("{:?}", (out.golden.steps, &out.golden.iteration_outputs)),
        format!("{:?}", (golden.steps, &golden.iteration_outputs)),
        "`golden` must be the golden run of the campaign's program and inputs"
    );
    out.trials
        .into_iter()
        .map(|t| Trial {
            seed: t.seed,
            injected_at: t.injected_at,
            stats: t.stats,
        })
        .collect()
}

/// A fixed-width histogram over recovery sample counts.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket width in samples.
    pub bucket_width: usize,
    /// Counts per bucket.
    pub buckets: Vec<usize>,
}

impl Histogram {
    /// Creates a histogram with the given bucket width and upper bound.
    pub fn new(bucket_width: usize, max_value: usize) -> Self {
        Histogram {
            bucket_width,
            buckets: vec![0; max_value / bucket_width + 2],
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: usize) {
        let idx = (value / self.bucket_width).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
    }

    /// Renders the histogram as an ASCII bar chart.
    pub fn render(&self) -> String {
        let max = self.buckets.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (i, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let lo = i * self.bucket_width;
            let hi = lo + self.bucket_width - 1;
            let bar = "#".repeat((count * 60).div_ceil(max));
            out.push_str(&format!("{lo:>6}-{hi:<6} {count:>5} {bar}\n"));
        }
        out
    }

    /// The bucket (by lower bound) with the most observations.
    pub fn peak(&self) -> Option<(usize, usize)> {
        self.buckets
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i * self.bucket_width, c))
    }

    /// Emits `bucket_lo,count` CSV lines.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("bucket_lo,count\n");
        for (i, &count) in self.buckets.iter().enumerate() {
            out.push_str(&format!("{},{}\n", i * self.bucket_width, count));
        }
        out
    }
}

/// Writes experiment output under `results/`, creating the directory.
pub fn write_result(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write result file");
    path
}

/// Reads a `NAME=value` style override from the environment, for scaling
/// experiments down in CI (`SJAVA_TRIALS`, `SJAVA_GRANULE`, ...).
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// True when benchmark runs must also fail on warning-severity
/// diagnostics: pass `--deny-warnings` to the binary or set
/// `SJAVA_DENY_WARNINGS=1`.
pub fn deny_warnings() -> bool {
    std::env::args().any(|a| a == "--deny-warnings")
        || std::env::var("SJAVA_DENY_WARNINGS").as_deref() == Ok("1")
}

/// Panics when `diags` contains errors — or any warnings, when `deny`
/// is set — so benchmark runs fail loudly instead of silently counting
/// new diagnostics into their numbers.
pub fn assert_clean(name: &str, diags: &sjava_syntax::diag::Diagnostics, deny: bool) {
    assert!(!diags.has_errors(), "{name} must check cleanly: {diags}");
    if deny {
        assert!(
            !diags.has_warnings(),
            "{name} has warnings and --deny-warnings is set: {diags}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_peak() {
        let mut h = Histogram::new(10, 100);
        h.record(5);
        h.record(7);
        h.record(25);
        assert_eq!(h.peak(), Some((0, 2)));
        assert!(h.render().contains("0-9"));
        assert!(h.to_csv().starts_with("bucket_lo,count"));
    }

    #[test]
    fn trial_harness_detects_divergence() {
        let p = sjava_syntax::parse(sjava_apps::windsensor::SOURCE).expect("parses");
        let golden = run_golden(
            &p,
            sjava_apps::windsensor::ENTRY,
            sjava_apps::windsensor::inputs(1),
            20,
        );
        let trials = run_trials(
            &p,
            sjava_apps::windsensor::ENTRY,
            || sjava_apps::windsensor::inputs(1),
            20,
            &golden,
            10,
            0.8,
            0.0,
        );
        let mut diverged = 0;
        for t in &trials {
            if t.stats.diverged {
                diverged += 1;
                assert!(t.stats.recovery_iterations <= 3);
            }
        }
        assert!(diverged > 0, "at least one trial should corrupt outputs");
    }
}
