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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sjava_runtime::{
    compare_runs, ExecOptions, Injector, InputProvider, Interpreter, RecoveryStats, RunResult,
};
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
    Interpreter::new(program, inputs, ExecOptions::default())
        .run(entry.0, entry.1, iterations)
        .expect("golden run cannot fail in ignore-errors mode")
}

/// Runs one injected trial: the trigger step is drawn uniformly from the
/// first `inject_window` fraction of the golden run's steps.
#[allow(clippy::too_many_arguments)]
pub fn run_trial<I: InputProvider>(
    program: &Program,
    entry: (&str, &str),
    inputs: I,
    iterations: usize,
    golden: &RunResult,
    seed: u64,
    inject_window: f64,
    eps: f64,
) -> Trial {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e3779b97f4a7c15));
    let max_step = ((golden.steps as f64) * inject_window).max(2.0) as u64;
    let trigger = rng.gen_range(1..max_step);
    // Alternate between "mathematical operation" and "memory" errors, as
    // in the paper's injection methodology (§6.2).
    let kind = if seed.is_multiple_of(2) {
        sjava_runtime::inject::InjectKind::Op
    } else {
        sjava_runtime::inject::InjectKind::Heap
    };
    let run = Interpreter::new(program, inputs, ExecOptions::default())
        .with_injector(Injector::with_kind(seed, trigger, kind))
        .run(entry.0, entry.1, iterations)
        .expect("injected run cannot fail in ignore-errors mode");
    let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, eps);
    Trial {
        seed,
        injected_at: run.injected_at,
        stats,
    }
}

/// Runs trials with seeds `0..trials` against one golden run, fanning
/// the embarrassingly-parallel injections across `sjava_par` workers
/// (`SJAVA_THREADS` overrides the width). `make_inputs` builds a fresh
/// input provider per trial. Results come back in seed order, so every
/// downstream aggregate (histograms, counters, CSV rows) is identical at
/// any thread count.
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
    I: InputProvider,
    F: Fn() -> I + Sync,
{
    sjava_par::run_indexed(trials, |i| {
        run_trial(
            program,
            entry,
            make_inputs(),
            iterations,
            golden,
            i as u64,
            inject_window,
            eps,
        )
    })
}

/// Runs seeds `0..trials` as a VM campaign: same per-seed trigger/kind
/// derivation and recovery stats as [`run_trials`], but executed on the
/// register-bytecode VM with one compile, one golden run, one VM per
/// worker and per-trial snapshot restore instead of a fresh interpreter
/// per trial. Returns the campaign's own (VM) golden run alongside the
/// trials; its outputs are byte-identical to the tree-walker's (gated
/// by `bench_vm --gate`).
pub fn run_trials_vm<I, F>(
    program: &Program,
    entry: (&str, &str),
    make_inputs: F,
    iterations: usize,
    trials: usize,
    inject_window: f64,
    eps: f64,
) -> (RunResult, Vec<Trial>)
where
    I: InputProvider + Clone,
    F: Fn() -> I + Sync,
{
    let mut c = sjava_runtime::Campaign::new(program, entry, iterations);
    c.trials = trials;
    c.inject_window = inject_window;
    c.eps = eps;
    let out = c.run(make_inputs).expect("campaign entry must resolve");
    let trials = out
        .trials
        .into_iter()
        .map(|t| Trial {
            seed: t.seed,
            injected_at: t.injected_at,
            stats: t.stats,
        })
        .collect();
    (out.golden, trials)
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
        let mut diverged = 0;
        for seed in 0..10 {
            let t = run_trial(
                &p,
                sjava_apps::windsensor::ENTRY,
                sjava_apps::windsensor::inputs(1),
                20,
                &golden,
                seed,
                0.8,
                0.0,
            );
            if t.stats.diverged {
                diverged += 1;
                assert!(t.stats.recovery_iterations <= 3);
            }
        }
        assert!(diverged > 0, "at least one trial should corrupt outputs");
    }
}
