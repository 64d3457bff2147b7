//! VM and error-injection throughput: decoded frames per second
//! in the golden run and a small injected campaign (the Fig 6.1 loop).

use criterion::{criterion_group, criterion_main, Criterion};
use sjava_apps::mp3dec;
use sjava_bench::{run_golden, run_trials};
use std::hint::black_box;

fn bench_decode(c: &mut Criterion) {
    let g = 48;
    let src = mp3dec::source_with(g, 4);
    let program = sjava_syntax::parse(&src).expect("parses");
    c.bench_function("decode_4_frames", |b| {
        b.iter(|| {
            run_golden(
                black_box(&program),
                mp3dec::ENTRY,
                mp3dec::inputs_for(0, g),
                4,
            )
            .steps
        })
    });
    let golden = run_golden(&program, mp3dec::ENTRY, mp3dec::inputs_for(0, g), 4);
    c.bench_function("injected_campaign_8_trials_4_frames", |b| {
        b.iter(|| {
            run_trials(
                black_box(&program),
                mp3dec::ENTRY,
                || mp3dec::inputs_for(0, g),
                4,
                &golden,
                8,
                0.6,
                1e-9,
            )
            .len()
        })
    });
}

fn bench_eviction(c: &mut Criterion) {
    // Ablation: eviction analysis cost alone vs the full check.
    let program = sjava_syntax::parse(sjava_apps::mp3dec::source()).expect("parses");
    c.bench_function("eviction_only_mp3dec", |b| {
        b.iter(|| {
            let mut d = sjava_syntax::diag::Diagnostics::new();
            let cg = sjava_analysis::callgraph::build(black_box(&program), &mut d).expect("cg");
            sjava_analysis::written::analyze(&program, &cg, &mut d)
                .summaries
                .len()
        })
    });
}

criterion_group!(benches, bench_decode, bench_eviction);
criterion_main!(benches);
