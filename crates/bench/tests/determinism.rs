//! Determinism regression: the parallel checking pipeline must produce
//! byte-for-byte identical diagnostics at any worker count. Every
//! benchmark program in `sjava-apps` is checked with 1 worker and with
//! several wider pools, and the rendered [`Diagnostics`] are compared as
//! strings. The unannotated `weather` source is included deliberately —
//! it fails the checker, so its (many) error diagnostics exercise the
//! merge order of the per-method buffers.
//!
//! Everything runs in ONE `#[test]` because the worker count is taken
//! from the `SJAVA_THREADS` environment variable, and the test harness
//! runs tests concurrently — a second test mutating the variable would
//! race, and its fan-outs would leak into the process-wide
//! `sjava_par::pooled_fan_outs` count the sweeps assert on.

use sjava_syntax::ast::Program;

fn apps() -> Vec<(&'static str, String)> {
    // The synthetic stress corpus rides along with the paper apps. Its
    // default preset (49 methods) is wide enough for the per-method
    // check fan-out to clear `sjava_par::SEQUENTIAL_BELOW`. A second copy
    // with every @LOC annotation stripped from one class fails the
    // checker, pinning the merge order of a *dense* error list at
    // production scale.
    let stress = sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::default());
    let broken = stress.replacen("@LOC(\"F0\") ", "", 1);
    assert_ne!(stress, broken, "strip must remove an annotation");
    // The adversarial preset adds the shapes the workers never produce:
    // a deep @DELTA chain, a chain-plus-antichain degenerate lattice,
    // and a @DELEGATE ownership relay ring.
    let adversarial =
        sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::adversarial());
    vec![
        ("windsensor", sjava_apps::windsensor::SOURCE.to_string()),
        ("eyetrack", sjava_apps::eyetrack::SOURCE.to_string()),
        ("sumobot", sjava_apps::sumobot::SOURCE.to_string()),
        ("mp3dec", sjava_apps::mp3dec::source().to_string()),
        ("weather", sjava_apps::weather::SOURCE.to_string()),
        ("stress_default", stress),
        ("stress_missing_loc", broken),
        ("stress_adversarial", adversarial),
        ("stress_large", large()),
    ]
}

/// The large stress preset: 25 classes, so the per-class waves of the
/// eviction analysis, the cache and the inference engine have 25 tasks
/// and cross `sjava_par::SEQUENTIAL_BELOW`.
fn large() -> String {
    sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::large())
}

/// Parses an app with the production front-end.
fn parse(_: &str, source: &str) -> Program {
    sjava_syntax::parse(source).expect("parses")
}

/// Parses `source` with the parallel split-lex-parse front-end forced at
/// `threads` workers. `eyetrack` and `weather` are one class each, so
/// there is nothing to split: like production parsing, they take the
/// sequential front-end. Every other app must take the parallel path.
fn parse_forced(name: &str, source: &str, threads: usize) -> Program {
    if matches!(name, "eyetrack" | "weather") {
        assert!(sjava_syntax::parse_parallel_forced(source, threads).is_none());
        return parse(name, source);
    }
    sjava_syntax::parse_parallel_forced(source, threads)
        .unwrap_or_else(|| panic!("{name}: the parallel front-end declined the source"))
}

/// Runs `f` and adds the number of fan-outs it ran on spawned workers
/// to `pooled`.
fn count_pooled<T>(pooled: &mut usize, f: impl FnOnce() -> T) -> T {
    let before = sjava_par::pooled_fan_outs();
    let out = f();
    *pooled += sjava_par::pooled_fan_outs() - before;
    out
}

/// A sweep at one worker must stay on the calling thread, and a sweep at
/// several must really reach the worker pool — otherwise its "identical
/// at any width" comparison never exercises the parallel code.
fn assert_pooled(what: &str, threads: usize, pooled: usize) {
    assert_eq!(
        pooled > 0,
        threads > 1,
        "{what}: {pooled} fan-outs ran on the worker pool at {threads} threads"
    );
}

/// Checks every app and renders its text diagnostics. `parse` turns an
/// app's `(name, source)` into its AST.
fn render_all(threads: usize, parse: impl Fn(&str, &str) -> Program) -> String {
    // SAFETY-free in edition 2021: std::env::set_var is a plain fn.
    std::env::set_var(sjava_par::THREADS_ENV, threads.to_string());
    assert_eq!(sjava_par::num_threads(), threads);
    let (mut out, mut pooled) = (String::new(), 0);
    for (name, source) in apps() {
        let program = parse(name, &source);
        let report = count_pooled(&mut pooled, || sjava_core::check_program(&program));
        // The merged report must already be in the stable total order on
        // (file, span, code) — downstream consumers (cache replay,
        // JSON/SARIF emitters) rely on it.
        assert!(
            report.diagnostics.is_sorted(),
            "{name}: merged diagnostics are not in stable sorted order"
        );
        out.push_str(&format!(
            "== {name}: ok={} ==\n{}\n",
            report.is_ok(),
            report.diagnostics
        ));
    }
    assert_pooled("check", threads, pooled);
    std::env::remove_var(sjava_par::THREADS_ENV);
    out
}

/// Renders every app's diagnostics through the JSON and SARIF emitters,
/// once from a fresh check and once each from a cold and a warm
/// incremental-cache session on the same AST. All three must serialize
/// to the same bytes at any worker count.
fn render_emitters(threads: usize, parse: impl Fn(&str, &str) -> Program) -> String {
    std::env::set_var(sjava_par::THREADS_ENV, threads.to_string());
    let (mut out, mut pooled) = (String::new(), 0);
    for (name, source) in apps() {
        let program = parse(name, &source);
        let file = sjava_syntax::SourceFile::new(format!("{name}.sj"), source);
        let emit = |d: &sjava_syntax::Diagnostics| {
            (
                sjava_syntax::emit::to_json(&file, d),
                sjava_syntax::emit::to_sarif(&file, d),
            )
        };
        let (json, sarif) = emit(&sjava_core::check_program(&program).diagnostics);
        let mut session = sjava_cache::IncrementalChecker::new();
        for label in ["cold", "warm"] {
            let report = count_pooled(&mut pooled, || session.check(&program));
            let (cached_json, cached_sarif) = emit(&report.diagnostics);
            assert_eq!(
                cached_json, json,
                "{name}: {label} cache JSON diverged from fresh check"
            );
            assert_eq!(
                cached_sarif, sarif,
                "{name}: {label} cache SARIF diverged from fresh check"
            );
        }
        out.push_str(&format!("== {name} ==\n{json}{sarif}"));
    }
    assert_pooled("incremental check", threads, pooled);
    std::env::remove_var(sjava_par::THREADS_ENV);
    out
}

/// Runs the dense inference engine over every annotatable app (location
/// annotations stripped first) plus the small and large stress corpora,
/// in both modes, and renders the re-annotated programs. The dense
/// engine fans its per-method VFG construction and per-class
/// decomposition out over `SJAVA_THREADS` workers, so this string must
/// be byte-identical at any width. `parse` turns an app's
/// `(name, source)` into its AST.
fn render_infer(threads: usize, parse: impl Fn(&str, &str) -> Program) -> String {
    std::env::set_var(sjava_par::THREADS_ENV, threads.to_string());
    assert_eq!(sjava_par::num_threads(), threads);
    let stress = sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::small());
    let adversarial =
        sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::adversarial());
    let large = large();
    let sources = [
        ("windsensor", sjava_apps::windsensor::SOURCE),
        ("eyetrack", sjava_apps::eyetrack::SOURCE),
        ("sumobot", sjava_apps::sumobot::SOURCE),
        ("mp3dec", sjava_apps::mp3dec::source()),
        ("stress_small", &stress),
        ("stress_adversarial", &adversarial),
        ("stress_large", &large),
    ];
    let (mut out, mut pooled) = (String::new(), 0);
    for (name, source) in sources {
        let program = parse(name, source);
        let stripped = sjava_syntax::strip::strip_location_annotations(&program);
        for mode in [sjava_infer::Mode::Naive, sjava_infer::Mode::SInfer] {
            let result = count_pooled(&mut pooled, || sjava_infer::infer(&stripped, mode))
                .unwrap_or_else(|d| panic!("{name} {mode:?}: inference failed: {d}"));
            assert_eq!(result.timings.threads, threads);
            out.push_str(&format!(
                "== {name} {mode:?} ==\n{}",
                sjava_syntax::pretty::print_program(&result.annotated)
            ));
        }
    }
    assert_pooled("inference", threads, pooled);
    std::env::remove_var(sjava_par::THREADS_ENV);
    out
}

fn render_trials(threads: usize) -> String {
    std::env::set_var(sjava_par::THREADS_ENV, threads.to_string());
    let program = parse("windsensor", sjava_apps::windsensor::SOURCE);
    let golden = sjava_bench::run_golden(
        &program,
        sjava_apps::windsensor::ENTRY,
        sjava_apps::windsensor::inputs(1),
        20,
    );
    let mut pooled = 0;
    // 32 trials: enough for the fan-out to reach the worker pool.
    let trials = count_pooled(&mut pooled, || {
        sjava_bench::run_trials(
            &program,
            sjava_apps::windsensor::ENTRY,
            || sjava_apps::windsensor::inputs(1),
            20,
            &golden,
            32,
            0.8,
            0.0,
        )
    });
    assert_pooled("trials", threads, pooled);
    let out = trials
        .iter()
        .map(|t| {
            format!(
                "{},{},{}\n",
                t.seed, t.stats.diverged, t.stats.recovery_iterations
            )
        })
        .collect();
    std::env::remove_var(sjava_par::THREADS_ENV);
    out
}

#[test]
fn diagnostics_identical_at_any_thread_count() {
    let baseline = render_all(1, parse);
    // The verified benchmarks contribute empty diagnostics; weather and
    // the stripped stress corpus contribute long error lists. Both kinds
    // must be stable.
    assert!(baseline.contains("weather"));
    assert!(baseline.contains("== stress_default: ok=true =="));
    assert!(baseline.contains("== stress_missing_loc: ok=false =="));
    assert!(baseline.contains("== stress_adversarial: ok=true =="));
    assert!(baseline.contains("== stress_large: ok=true =="));
    for threads in [2, 4, 8] {
        let wide = render_all(threads, parse);
        assert_eq!(
            baseline, wide,
            "diagnostics changed between 1 and {threads} worker threads"
        );
    }

    // The structured emitters must be byte-identical at any worker
    // count, and the incremental cache (cold and warm) must serialize
    // to the same bytes as a fresh check — `render_emitters` asserts
    // the cache half internally.
    let emitted = render_emitters(1, parse);
    for threads in [2, 4, 8] {
        assert_eq!(
            emitted,
            render_emitters(threads, parse),
            "JSON/SARIF output changed between 1 and {threads} worker threads"
        );
    }

    // The dense inference engine re-annotates every app byte-identically
    // at any fan-out width.
    let inferred = render_infer(1, parse);
    for threads in [2, 4, 8] {
        assert_eq!(
            inferred,
            render_infer(threads, parse),
            "inferred annotations changed between 1 and {threads} worker threads"
        );
    }

    // Seeded error-injection trials must also be independent of the
    // fan-out width (and of HashMap iteration order — see
    // `Heap::cells_mut`).
    let trials = render_trials(1);
    for threads in [4, 8] {
        assert_eq!(
            trials,
            render_trials(threads),
            "trial outcomes changed between 1 and {threads} worker threads"
        );
    }

    // Parallel front-end sweep: the paper apps have far fewer top-level
    // classes than the front-end's unit cutover, so the sweeps above
    // never split them. With the split-lex-parse path forced, the text
    // diagnostics, the JSON/SARIF emitters (fresh and cached), and the
    // inferred annotations — whose SH_* shared-lattice names appear in
    // the pretty-printed programs — must all match the sequential
    // front-end byte for byte.
    for threads in [2, 4, 8] {
        let forced = move |name: &str, source: &str| parse_forced(name, source, threads);
        assert_eq!(
            baseline,
            render_all(threads, forced),
            "parallel front-end changed diagnostics at {threads} threads"
        );
        assert_eq!(
            emitted,
            render_emitters(threads, forced),
            "parallel front-end changed JSON/SARIF at {threads} threads"
        );
        assert_eq!(
            inferred,
            render_infer(threads, forced),
            "parallel front-end changed inferred annotations at {threads} threads"
        );
    }
}
