//! VM ≡ tree-walker equivalence suite (the property behind `bench_vm
//! --gate`): on every paper application and on randomized `stressgen`
//! programs, the register-bytecode VM must produce byte-identical
//! results to the tree-walking interpreter — identical output traces,
//! step counts, error logs, and `RuntimeError`s — plain and under
//! injected faults of both kinds. Also pins campaign results to be
//! independent of the worker thread count and the batch size.

use sjava_bench::stressgen::{self, StressConfig};
use sjava_runtime::campaign::TrialKind;
use sjava_runtime::inject::InjectKind;
use sjava_runtime::{
    compare_runs, compile, Campaign, CampaignOutcome, ExecOptions, FnInput, Grid, Injector,
    InputProvider, Interpreter, ScriptedInput, Value, Vm,
};
use sjava_syntax::ast::Program;

/// Runs both engines on the same configuration and asserts the full
/// debug form of the outcome matches byte for byte.
fn assert_equiv<I: InputProvider + Clone>(
    label: &str,
    program: &Program,
    entry: (&str, &str),
    inputs: I,
    iterations: usize,
    injector: Option<(u64, u64, InjectKind)>,
) {
    let module = compile(program);
    let mut interp = Interpreter::new(program, inputs.clone(), ExecOptions::default());
    if let Some((seed, trigger, kind)) = injector {
        interp = interp.with_injector(Injector::with_kind(seed, trigger, kind));
    }
    let a = interp.run(entry.0, entry.1, iterations);
    let mut vm = Vm::new(&module, inputs, ExecOptions::default());
    if let Some((seed, trigger, kind)) = injector {
        vm = vm.with_injector(Injector::with_kind(seed, trigger, kind));
    }
    let b = vm.run(entry.0, entry.1, iterations);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "engines diverged on {label} (injector {injector:?})"
    );
}

/// Plain run + an injected sweep (both kinds, triggers spread across the
/// golden run's steps) on one program.
fn sweep<I, F>(label: &str, program: &Program, entry: (&str, &str), make_inputs: F, iters: usize)
where
    I: InputProvider + Clone,
    F: Fn() -> I,
{
    assert_equiv(label, program, entry, make_inputs(), iters, None);
    let golden = Interpreter::new(program, make_inputs(), ExecOptions::default())
        .run(entry.0, entry.1, iters)
        .expect("golden run");
    for seed in 0..3u64 {
        for (t, frac) in [0.15f64, 0.5, 0.85].iter().enumerate() {
            let trigger = (((golden.steps as f64) * frac) as u64).max(1);
            let kind = if (seed + t as u64).is_multiple_of(2) {
                InjectKind::Op
            } else {
                InjectKind::Heap
            };
            assert_equiv(
                label,
                program,
                entry,
                make_inputs(),
                iters,
                Some((seed, trigger, kind)),
            );
        }
    }
}

#[test]
fn paper_apps_are_engine_identical() {
    use sjava_apps::{eyetrack, mp3dec, sumobot, weather, windsensor};
    let p = |src: &str| sjava_syntax::parse(src).expect("app parses");
    sweep(
        "windsensor",
        &p(windsensor::SOURCE),
        windsensor::ENTRY,
        || windsensor::inputs(1),
        40,
    );
    sweep(
        "weather",
        &p(weather::SOURCE),
        weather::ENTRY,
        || weather::inputs(1),
        40,
    );
    sweep(
        "sumobot",
        &p(sumobot::SOURCE),
        sumobot::ENTRY,
        || sumobot::inputs(1),
        40,
    );
    sweep(
        "eyetrack",
        &p(eyetrack::SOURCE),
        eyetrack::ENTRY,
        || eyetrack::inputs(1),
        40,
    );
    // Small granule keeps the debug-build decoder affordable; the
    // release-grade GRANULE configuration is exercised by `bench_vm`.
    let src = mp3dec::source_with(24, mp3dec::WINDOW);
    sweep(
        "mp3dec",
        &sjava_syntax::parse(&src).expect("decoder parses"),
        mp3dec::ENTRY,
        || mp3dec::inputs_for(0, 24),
        4,
    );
}

#[test]
fn random_stress_programs_are_engine_identical() {
    // Deterministically varied generator configs stand in for a
    // proptest: every seed yields a structurally different program
    // (different class/method/field counts, loop depths, delta chains,
    // degenerate and cyclic-delegate corners).
    for seed in 0..8u64 {
        let mut cfg = StressConfig::small();
        cfg.seed = seed;
        cfg.classes = 2 + (seed as usize % 3);
        cfg.methods = 2 + (seed as usize % 2);
        cfg.fields = 2 + (seed as usize / 2 % 3);
        cfg.loop_depth = 1 + (seed as usize % 2);
        cfg.stmts = 3 + (seed as usize % 4);
        cfg.delta_depth = seed as usize % 3;
        cfg.degenerate = seed as usize % 2;
        cfg.cyclic_delegates = (seed as usize / 4) % 2;
        let src = stressgen::generate(&cfg);
        let program = sjava_syntax::parse(&src).expect("stress program parses");
        let inputs = || FnInput::new(|_, i| Value::Int((i % 23) as i64 - 11));
        sweep(
            &format!("stress[{}]", cfg.label()),
            &program,
            ("StressMain", "run"),
            inputs,
            8,
        );
    }
}

#[test]
fn adversarial_corpus_is_engine_identical() {
    let src = stressgen::generate(&StressConfig::adversarial());
    let program = sjava_syntax::parse(&src).expect("adversarial program parses");
    sweep(
        "stress[adversarial]",
        &program,
        ("StressMain", "run"),
        || FnInput::new(|_, i| Value::Int((i % 17) as i64 - 8)),
        6,
    );
}

#[test]
fn campaign_is_thread_count_invariant() {
    // The injected-run sweep at 1 vs 4 workers: identical per-trial
    // results regardless of batching/stealing (the campaign fixes the
    // thread count explicitly, so the test is immune to SJAVA_THREADS).
    let program = sjava_syntax::parse(sjava_apps::windsensor::SOURCE).expect("parses");
    let run = |threads: usize| {
        let mut c = Campaign::new(&program, sjava_apps::windsensor::ENTRY, 30);
        c.trials = 64;
        c.threads = Some(threads);
        c.batch_size = 5;
        c.run(|| sjava_apps::windsensor::inputs(1))
            .expect("campaign runs")
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.trials.len(), b.trials.len());
    for (x, y) in a.trials.iter().zip(b.trials.iter()) {
        // `ns` is wall-clock and legitimately differs; everything
        // semantic must match exactly.
        assert_eq!(x.seed, y.seed);
        assert_eq!(x.trigger, y.trigger);
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.injected_at, y.injected_at);
        assert_eq!(x.stats, y.stats);
    }
    assert_eq!(a.diverged(), b.diverged());
    assert_eq!(a.hist_samples.buckets, b.hist_samples.buckets);
    assert_eq!(a.hist_iterations.buckets, b.hist_iterations.buckets);
}

/// Field initializers that run VM steps, so instantiation takes
/// `prep.steps >= 1` and early triggers take the campaign's full-run
/// path. The second program's initializer also reads an input, so the
/// post-instantiation input state differs from the fresh one.
const INSTANTIATING: [&str; 2] = [
    "class A { int warm = 1 + 2; int prev; void main() { SSJAVA: while (true) {
        int x = Device.read();
        Out.emit(prev + x);
        prev = x;
    } } }",
    "class A { int warm = Device.read() + 2; int prev; void main() { SSJAVA: while (true) {
        int x = Device.read();
        Out.emit(prev + x + warm);
        prev = x;
    } } }",
];

fn scripted() -> ScriptedInput {
    ScriptedInput::new().channel(
        "read",
        vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(5)],
    )
}

#[test]
fn campaign_is_batch_size_invariant() {
    // Every (batch size, thread count) pair must reproduce the per-trial
    // results of one-trial batches on one thread, on both grid kinds,
    // including trials whose trigger fires during instantiation.
    let semantic = |o: &CampaignOutcome| {
        o.trials
            .iter()
            .map(|t| (t.seed, t.trigger, t.kind, t.injected_at, t.stats.clone()))
            .collect::<Vec<_>>()
    };
    for src in INSTANTIATING {
        let program = sjava_syntax::parse(src).expect("parses");
        let module = compile(&program);
        let prep_steps = Vm::new(&module, scripted(), ExecOptions::default())
            .prepare("A", "main")
            .expect("entry resolves")
            .steps;
        assert!(prep_steps >= 1, "instantiation must take steps");
        let grids = [
            Grid::MonteCarlo,
            Grid::Lattice {
                seeds: 3,
                triggers: 4,
            },
        ];
        for grid in grids {
            let run = |batch_size: usize, threads: usize| {
                let mut c = Campaign::new(&program, ("A", "main"), 6);
                c.grid = grid;
                c.trials = 40;
                c.threads = Some(threads);
                c.batch_size = batch_size;
                c.run(scripted).expect("campaign runs")
            };
            let reference = run(1, 1);
            assert!(
                reference.trials.iter().any(|t| t.trigger <= prep_steps),
                "{grid:?}: the grid must include triggers inside instantiation"
            );
            // Ground truth: every trial equals one injected run on a
            // fresh VM over fresh inputs.
            for t in &reference.trials {
                let injector = match t.kind {
                    TrialKind::Op => Injector::with_kind(t.seed, t.trigger, InjectKind::Op),
                    TrialKind::HeapRandom => {
                        Injector::with_kind(t.seed, t.trigger, InjectKind::Heap)
                    }
                    TrialKind::HeapCell(rank) => Injector::targeted_cell(t.seed, t.trigger, rank),
                };
                let fresh = Vm::new(&module, scripted(), ExecOptions::default())
                    .with_injector(injector)
                    .run("A", "main", 6)
                    .expect("injected run");
                assert_eq!(t.injected_at, fresh.injected_at, "{grid:?} {t:?}\n{src}");
                assert_eq!(
                    t.stats,
                    compare_runs(
                        &reference.golden.iteration_outputs,
                        &fresh.iteration_outputs,
                        0.0
                    ),
                    "{grid:?} {t:?}\n{src}"
                );
            }
            for batch_size in [1usize, 7, 1000] {
                for threads in [1usize, 4] {
                    let got = run(batch_size, threads);
                    assert_eq!(
                        semantic(&got),
                        semantic(&reference),
                        "{grid:?} batch_size={batch_size} threads={threads} changed results\n{src}"
                    );
                    assert_eq!(got.hist_samples.buckets, reference.hist_samples.buckets);
                    assert_eq!(
                        got.hist_iterations.buckets,
                        reference.hist_iterations.buckets
                    );
                }
            }
        }
    }
}
