//! `bench_vm` — register-bytecode VM vs tree-walking interpreter.
//!
//! Measures single-thread runs/sec of both engines on the four paper
//! applications plus the MP3 decoder, verifies byte-identical output
//! traces (full `Result<RunResult, RuntimeError>` debug form, so
//! outputs, step counts, error logs and injection points all match) on
//! the apps and on the `stressgen` adversarial corpus — plain and with
//! injected faults of both kinds — and reports campaign throughput
//! (trials/sec) of the VM campaign pipeline vs the per-trial interpreter
//! pipeline. Results go to `results/BENCH_vm.json`.
//!
//! ```text
//! cargo run --release -p sjava-bench --bin bench_vm          # full report
//! cargo run --release -p sjava-bench --bin bench_vm -- --gate
//! ```
//!
//! `--gate` is the CI mode: trace identity is always enforced; the
//! mp3dec speedup floor (`SJAVA_GATE_SPEEDUP`, default 5x) is enforced
//! only on hosts with ≥4 cores — small shared runners are too noisy for
//! a throughput assertion to be meaningful.
//!
//! Env overrides: `SJAVA_VM_REPS` (timing repetitions, default 5),
//! `SJAVA_VM_TRIALS` (campaign trials, default 2000),
//! `SJAVA_GATE_SPEEDUP` (default 5).

use std::time::Instant;

use sjava_apps::{eyetrack, mp3dec, sumobot, weather, windsensor};
use sjava_bench::stressgen::{self, StressConfig};
use sjava_bench::{env_usize, run_golden, run_trials, run_trials_vm, write_result};
use sjava_runtime::inject::InjectKind;
use sjava_runtime::{
    compile, ExecOptions, FnInput, Injector, InputProvider, Interpreter, Value, Vm,
};
use sjava_syntax::ast::Program;

/// One app's engine comparison.
struct AppRow {
    name: &'static str,
    iterations: usize,
    identical: bool,
    interp_runs_per_sec: f64,
    vm_runs_per_sec: f64,
    speedup: f64,
}

/// Runs both engines on `program` and compares the full debug form of
/// the outcome; times `reps` repetitions of each (execution only — no
/// parse, no compile — so the ratio isolates dispatch cost).
fn bench_app<I, F>(
    name: &'static str,
    program: &Program,
    entry: (&str, &str),
    make_inputs: F,
    iterations: usize,
    reps: usize,
) -> AppRow
where
    I: InputProvider + Clone,
    F: Fn() -> I,
{
    let module = compile(program);
    let opts = ExecOptions::default;

    let a = Interpreter::new(program, make_inputs(), opts()).run(entry.0, entry.1, iterations);
    let mut vm = Vm::new(&module, make_inputs(), opts());
    let b = vm.run(entry.0, entry.1, iterations);
    let identical = format!("{a:?}") == format!("{b:?}");

    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = Interpreter::new(program, make_inputs(), opts()).run(entry.0, entry.1, iterations);
    }
    let interp_s = t0.elapsed().as_secs_f64() / reps as f64;

    let t0 = Instant::now();
    for _ in 0..reps {
        vm.set_inputs(make_inputs());
        let _ = vm.run(entry.0, entry.1, iterations);
    }
    let vm_s = t0.elapsed().as_secs_f64() / reps as f64;

    AppRow {
        name,
        iterations,
        identical,
        interp_runs_per_sec: 1.0 / interp_s.max(1e-12),
        vm_runs_per_sec: 1.0 / vm_s.max(1e-12),
        speedup: interp_s / vm_s.max(1e-12),
    }
}

/// Compares engines on one program/injector configuration.
fn engines_agree<I: InputProvider + Clone>(
    program: &Program,
    entry: (&str, &str),
    inputs: I,
    iterations: usize,
    injector: Option<(u64, u64, InjectKind)>,
) -> bool {
    let module = compile(program);
    let build = |(seed, trigger, kind)| Injector::with_kind(seed, trigger, kind);
    let mut interp = Interpreter::new(program, inputs.clone(), ExecOptions::default());
    if let Some(cfg) = injector {
        interp = interp.with_injector(build(cfg));
    }
    let a = interp.run(entry.0, entry.1, iterations);
    let mut vm = Vm::new(&module, inputs, ExecOptions::default());
    if let Some(cfg) = injector {
        vm = vm.with_injector(build(cfg));
    }
    let b = vm.run(entry.0, entry.1, iterations);
    format!("{a:?}") == format!("{b:?}")
}

/// Stress inputs: a deterministic, cloneable channel stream.
fn stress_inputs() -> impl InputProvider + Clone {
    FnInput::new(|_, i| Value::Int((i % 17) as i64 - 8))
}

/// Checks engine identity over the stress corpus: each preset runs
/// plain and under a grid of injected faults (both kinds, triggers
/// spread over the golden run). Returns `(configs_checked, failures)`.
fn stress_identity(presets: &[(&str, StressConfig)], iterations: usize) -> (usize, Vec<String>) {
    let mut checked = 0usize;
    let mut failures = Vec::new();
    for (label, cfg) in presets {
        let src = stressgen::generate(cfg);
        let program = sjava_syntax::parse(&src).expect("stress program parses");
        let entry = ("StressMain", "run");
        if !engines_agree(&program, entry, stress_inputs(), iterations, None) {
            failures.push(format!("{label}: plain run diverged"));
        }
        checked += 1;
        let golden = run_golden(&program, entry, stress_inputs(), iterations);
        for seed in 0..4u64 {
            for (t, frac) in [0.1f64, 0.35, 0.6, 0.85].iter().enumerate() {
                let trigger = (((golden.steps as f64) * frac) as u64).max(1);
                let kind = if (seed + t as u64).is_multiple_of(2) {
                    InjectKind::Op
                } else {
                    InjectKind::Heap
                };
                if !engines_agree(
                    &program,
                    entry,
                    stress_inputs(),
                    iterations,
                    Some((seed, trigger, kind)),
                ) {
                    failures.push(format!(
                        "{label}: injected run diverged (seed {seed}, trigger {trigger}, {kind:?})"
                    ));
                }
                checked += 1;
            }
        }
    }
    (checked, failures)
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");
    let reps = env_usize("SJAVA_VM_REPS", if gate { 3 } else { 5 });
    let campaign_trials = env_usize("SJAVA_VM_TRIALS", 2000);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // --- Per-app engine comparison -----------------------------------
    let parse = |src: &str| sjava_syntax::parse(src).expect("app parses");
    let mp3_src = mp3dec::source_with(mp3dec::GRANULE, mp3dec::WINDOW);
    let programs = (
        parse(windsensor::SOURCE),
        parse(weather::SOURCE),
        parse(sumobot::SOURCE),
        parse(eyetrack::SOURCE),
        parse(&mp3_src),
    );
    let rows = vec![
        bench_app(
            "windsensor",
            &programs.0,
            windsensor::ENTRY,
            || windsensor::inputs(1),
            200,
            reps,
        ),
        bench_app(
            "weather",
            &programs.1,
            weather::ENTRY,
            || weather::inputs(1),
            200,
            reps,
        ),
        bench_app(
            "sumobot",
            &programs.2,
            sumobot::ENTRY,
            || sumobot::inputs(1),
            200,
            reps,
        ),
        bench_app(
            "eyetrack",
            &programs.3,
            eyetrack::ENTRY,
            || eyetrack::inputs(1),
            200,
            reps,
        ),
        bench_app(
            "mp3dec",
            &programs.4,
            mp3dec::ENTRY,
            || mp3dec::inputs(0),
            8,
            reps,
        ),
    ];

    println!("bench_vm — tree-walking interpreter vs register-bytecode VM");
    println!("host: {cores} core(s); {reps} timing rep(s) per engine\n");
    println!(
        "{:<12} {:>6} {:>9} {:>14} {:>14} {:>9}",
        "app", "iters", "identical", "interp runs/s", "vm runs/s", "speedup"
    );
    for r in &rows {
        println!(
            "{:<12} {:>6} {:>9} {:>14.1} {:>14.1} {:>8.2}x",
            r.name,
            r.iterations,
            if r.identical { "yes" } else { "NO" },
            r.interp_runs_per_sec,
            r.vm_runs_per_sec,
            r.speedup
        );
    }

    // --- Stress-corpus identity --------------------------------------
    let presets = [
        ("small", StressConfig::small()),
        ("default", StressConfig::default()),
        ("adversarial", StressConfig::adversarial()),
    ];
    let (stress_checked, stress_failures) = stress_identity(&presets, 10);
    println!(
        "\nstress corpus: {stress_checked} engine-pair configs compared, {} mismatch(es)",
        stress_failures.len()
    );
    for f in &stress_failures {
        println!("  MISMATCH {f}");
    }

    // --- Campaign throughput (skipped under --gate: identity and the
    //     speedup floor are the contract; throughput here is advisory) -
    let mut campaign_json = String::from("null");
    if !gate {
        let t0 = Instant::now();
        let (_, vm_trials) = run_trials_vm(
            &programs.4,
            mp3dec::ENTRY,
            || mp3dec::inputs(0),
            8,
            campaign_trials,
            0.6,
            1e-9,
        );
        let vm_elapsed = t0.elapsed().as_secs_f64();
        let vm_tps = vm_trials.len() as f64 / vm_elapsed.max(1e-9);

        let baseline_trials = campaign_trials.min(200);
        let golden = run_golden(&programs.4, mp3dec::ENTRY, mp3dec::inputs(0), 8);
        let t0 = Instant::now();
        let interp_trials = run_trials(
            &programs.4,
            mp3dec::ENTRY,
            || mp3dec::inputs(0),
            8,
            &golden,
            baseline_trials,
            0.6,
            1e-9,
        );
        let interp_elapsed = t0.elapsed().as_secs_f64();
        let interp_tps = interp_trials.len() as f64 / interp_elapsed.max(1e-9);

        println!(
            "\ncampaign throughput (mp3dec, 8 frames): VM {vm_tps:.1} trials/s ({} trials) vs interpreter {interp_tps:.1} trials/s ({baseline_trials} trials) — {:.2}x",
            vm_trials.len(),
            vm_tps / interp_tps.max(1e-9)
        );
        campaign_json = format!(
            "{{\"app\": \"mp3dec\", \"vm_trials\": {}, \"vm_trials_per_sec\": {vm_tps:.1}, \"interp_trials\": {baseline_trials}, \"interp_trials_per_sec\": {interp_tps:.1}, \"speedup\": {:.3}}}",
            vm_trials.len(),
            vm_tps / interp_tps.max(1e-9)
        );
    }

    // --- JSON report --------------------------------------------------
    let app_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"app\": \"{}\", \"iterations\": {}, \"identical\": {}, \"interp_runs_per_sec\": {:.1}, \"vm_runs_per_sec\": {:.1}, \"speedup\": {:.3}}}",
                r.name, r.iterations, r.identical, r.interp_runs_per_sec, r.vm_runs_per_sec, r.speedup
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"cores\": {cores},\n  \"reps\": {reps},\n  \"apps\": [\n{}\n  ],\n  \"stress_configs_checked\": {stress_checked},\n  \"stress_mismatches\": {},\n  \"campaign\": {campaign_json}\n}}\n",
        app_json.join(",\n"),
        stress_failures.len()
    );
    let path = write_result("BENCH_vm.json", &json);
    println!("\nreport written to {}", path.display());

    // --- Gate ---------------------------------------------------------
    let all_identical = rows.iter().all(|r| r.identical) && stress_failures.is_empty();
    assert!(
        all_identical,
        "VM and tree-walker must produce byte-identical traces"
    );
    if gate {
        let floor = env_usize("SJAVA_GATE_SPEEDUP", 5) as f64;
        let mp3 = rows.iter().find(|r| r.name == "mp3dec").expect("mp3 row");
        if cores >= 4 {
            assert!(
                mp3.speedup >= floor,
                "VM must be ≥{floor}x the tree-walker on mp3dec, got {:.2}x",
                mp3.speedup
            );
            println!(
                "gate: trace identity OK; mp3dec speedup {:.2}x ≥ {floor}x OK",
                mp3.speedup
            );
        } else {
            println!(
                "gate: trace identity OK; speedup floor skipped ({cores} core(s) < 4 — too noisy)"
            );
        }
    }
}
