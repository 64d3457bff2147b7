//! Figure 6.2: MP3 decoder output signal — normal execution vs execution
//! with an injected error. The injected run oscillates wildly inside a
//! bounded window and then resumes tracking the normal signal exactly
//! (the paper observed 1,630 affected samples in its example trial).
//!
//! The seed scan runs on the register-bytecode VM: the decoder is
//! compiled once, the post-instantiation machine state is snapshotted,
//! and each candidate seed replays via snapshot restore instead of a
//! fresh instantiation.
//!
//! Usage: `cargo run --release -p sjava-bench --bin fig6_2`
//! Env overrides: `SJAVA_GRANULE`, `SJAVA_WINDOW`, `SJAVA_SEED`.

use sjava_apps::mp3dec;
use sjava_bench::{env_usize, write_result};
use sjava_runtime::{compare_runs, compile, ExecOptions, Injector, Value, Vm};

fn main() {
    let granule = env_usize("SJAVA_GRANULE", mp3dec::GRANULE);
    let window = env_usize("SJAVA_WINDOW", mp3dec::WINDOW);
    let frames = env_usize("SJAVA_FRAMES", 8);
    let frame_samples = mp3dec::frame_samples(granule);

    let src = mp3dec::source_with(granule, window);
    let program = sjava_syntax::parse(&src).expect("decoder parses");
    let module = compile(&program);
    let mut vm = Vm::new(
        &module,
        mp3dec::inputs_for(0, granule),
        ExecOptions::default(),
    );
    let golden = vm
        .run(mp3dec::ENTRY.0, mp3dec::ENTRY.1, frames)
        .expect("golden run");

    // Pick a seed whose injection lands in a granule store of frame 2 so
    // the trace shows the full oscillation + recovery (scan a few seeds
    // for a divergent one in the right region).
    let target_lo = golden.steps / frames as u64 * 2;
    let target_hi = golden.steps / frames as u64 * 3;
    vm.set_inputs(mp3dec::inputs_for(0, granule));
    let prep = vm
        .prepare(mp3dec::ENTRY.0, mp3dec::ENTRY.1)
        .expect("prepares");
    let snap = vm.snapshot();
    let mut chosen = None;
    for seed in env_usize("SJAVA_SEED", 0) as u64..200 {
        let trigger = target_lo + (seed * 7919) % (target_hi - target_lo);
        vm.restore(&snap);
        let run = vm
            .resume(&prep, frames, Some(Injector::new(seed, trigger)))
            .expect("runs");
        let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 1e-9);
        if stats.diverged && stats.recovery_samples > frame_samples / 2 {
            chosen = Some((seed, run, stats));
            break;
        }
    }
    let (seed, injected, stats) = chosen.expect("a divergent trial exists");

    println!("Fig 6.2 — normal vs error-injected decoder output (seed {seed})");
    println!(
        "first bad sample: {:?}, last bad sample: {:?}, affected window: {} samples ({:.2} frames; the paper's example showed 1,630 samples)",
        stats.first_bad_sample,
        stats.last_bad_sample,
        stats.recovery_samples,
        stats.recovery_samples as f64 / frame_samples as f64
    );

    let g: Vec<f64> = golden
        .outputs()
        .iter()
        .map(|v| match v {
            Value::Float(x) => *x,
            _ => 0.0,
        })
        .collect();
    let j: Vec<f64> = injected
        .outputs()
        .iter()
        .map(|v| match v {
            Value::Float(x) => *x,
            _ => 0.0,
        })
        .collect();
    let mut csv = String::from("sample,normal,injected\n");
    for i in 0..g.len().min(j.len()) {
        csv.push_str(&format!("{},{:.3},{:.3}\n", i, g[i], j[i]));
    }
    let path = write_result("fig6_2.csv", &csv);
    println!("trace written to {}", path.display());

    // Compact ASCII view around the corruption window.
    let lo = stats.first_bad_sample.unwrap_or(0).saturating_sub(8);
    let hi = (stats.last_bad_sample.unwrap_or(0) + 8).min(g.len().min(j.len()) - 1);
    println!("\nsample   normal      injected");
    let step = ((hi - lo) / 40).max(1);
    for i in (lo..=hi).step_by(step) {
        let marker = if (g[i] - j[i]).abs() > 1e-9 {
            "  <-- deviates"
        } else {
            ""
        };
        println!("{i:>6} {:>11.1} {:>11.1}{marker}", g[i], j[i]);
    }
    println!(
        "\nafter sample {} the injected execution matches the normal one exactly",
        stats.last_bad_sample.unwrap_or(0)
    );
}
