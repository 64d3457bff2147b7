//! Domain example: an embedded controller surviving fault injection. Runs
//! the sumo-robot controller through a campaign of injected errors and
//! shows that every corrupted movement decision is gone by the next
//! iteration of the control loop (§6.2.3).
//!
//! Run with: `cargo run --example robot_fault_injection`

use sjava::apps::sumobot;
use sjava::{check, compare_runs, compile, parse, ExecOptions, Injector, Value, Vm};

fn main() {
    let program = parse(sumobot::SOURCE).expect("parses");
    let module = compile(&program);
    let report = check(&program);
    assert!(report.is_ok(), "{}", report.diagnostics);
    println!("robot controller verified self-stabilizing ✓\n");

    let iterations = 30;
    let golden = Vm::new(&module, sumobot::inputs(0), ExecOptions::default())
        .run(sumobot::ENTRY.0, sumobot::ENTRY.1, iterations)
        .expect("golden");

    let name = |m: &Value| match m {
        Value::Int(1) => "retreat",
        Value::Int(2) => "attack",
        Value::Int(3) => "search",
        _ => "?",
    };
    println!("golden strategy trace:");
    let trace: Vec<&str> = golden
        .iteration_outputs
        .iter()
        .map(|it| name(&it[0]))
        .collect();
    println!("  {}\n", trace.join(" "));

    let mut corrupted = 0;
    for seed in 0..25u64 {
        let trigger = 5 + seed * 23;
        let run = Vm::new(&module, sumobot::inputs(0), ExecOptions::default())
            .with_injector(Injector::new(seed, trigger))
            .run(sumobot::ENTRY.0, sumobot::ENTRY.1, iterations)
            .expect("injected");
        let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 0.0);
        if let (true, Some(bad)) = (stats.diverged, stats.first_bad_iteration) {
            corrupted += 1;
            println!(
                "seed {seed:>2}: iteration {bad} issued {:>7} instead of {:>7} — normal again at iteration {}",
                name(&run.iteration_outputs[bad][0]),
                name(&golden.iteration_outputs[bad][0]),
                bad + stats.recovery_iterations
            );
            assert!(
                stats.recovery_iterations <= 1,
                "stateless loop: next-iteration recovery"
            );
        }
    }
    println!("\n{corrupted}/25 injections changed a decision; all recovered by the next iteration");
}
