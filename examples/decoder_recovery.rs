//! Domain example: the streaming audio decoder (the paper's MP3
//! benchmark). Injects a burst of independent errors and prints, per
//! trial, how many output samples passed before the decoded signal
//! matched the error-free stream again — the §6.2.1 experiment in
//! miniature.
//!
//! Run with: `cargo run --release --example decoder_recovery`

use sjava::apps::mp3dec;
use sjava::{check, compare_runs, compile, parse, ExecOptions, Injector, Vm};

fn main() {
    let granule = 64;
    let window = 8;
    let src = mp3dec::source_with(granule, window);
    let program = parse(&src).expect("decoder parses");
    let module = compile(&program);
    let report = check(&program);
    assert!(report.is_ok(), "{}", report.diagnostics);
    println!(
        "decoder verified self-stabilizing (frame = {} samples, window = {window})",
        2 * granule
    );

    let frames = 8;
    let golden = Vm::new(
        &module,
        mp3dec::inputs_for(0, granule),
        ExecOptions::default(),
    )
    .run(mp3dec::ENTRY.0, mp3dec::ENTRY.1, frames)
    .expect("golden run");
    println!(
        "golden run: {} PCM samples over {frames} frames\n",
        golden.outputs().len()
    );

    println!("seed  injected@step   recovery(samples)  recovery(frames)");
    for seed in 0..12u64 {
        let trigger = 1 + seed * golden.steps / 14;
        let run = Vm::new(
            &module,
            mp3dec::inputs_for(0, granule),
            ExecOptions::default(),
        )
        .with_injector(Injector::new(seed, trigger))
        .run(mp3dec::ENTRY.0, mp3dec::ENTRY.1, frames)
        .expect("injected run");
        let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 1e-9);
        println!(
            "{seed:>4}  {trigger:>13}   {:>17}  {:>16.2}",
            stats.recovery_samples,
            stats.recovery_samples as f64 / (2 * granule) as f64
        );
        assert!(
            stats.recovery_samples <= 2 * 2 * granule + window,
            "recovery must be bounded by ~2 frames"
        );
    }
    println!("\nevery error washed out within two frames — as the checker guarantees");
}
