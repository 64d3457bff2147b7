//! Quickstart: verify that a small sensor program self-stabilizes, then
//! watch it actually recover from an injected error.
//!
//! Run with: `cargo run --example quickstart`

use sjava::{check, compare_runs, compile, parse, ExecOptions, Injector, ScriptedInput, Value, Vm};

const SOURCE: &str = r#"
@LATTICE("OLD<CUR")
class Sensor {
    @LOC("CUR") int cur;
    @LOC("OLD") int old;

    @LATTICE("S<IN") @THISLOC("S")
    void run() {
        SSJAVA: while (true) {
            @LOC("IN") int x = Device.read();
            old = cur;       // values only flow DOWN the lattice...
            cur = x;         // ...and every location is overwritten
            Out.emit(cur + old);
        }
    }
}
"#;

fn main() {
    // 1. Parse and statically verify self-stabilization.
    let program = parse(SOURCE).expect("source parses");
    let report = check(&program);
    assert!(report.is_ok(), "checker says:\n{}", report.diagnostics);
    println!("checker: program is self-stabilizing ✓");

    // 2. Compile to register bytecode and take a golden run.
    let module = compile(&program);
    let inputs = || ScriptedInput::new().channel("read", (1..=10).map(Value::Int).collect());
    let golden = Vm::new(&module, inputs(), ExecOptions::default())
        .run("Sensor", "run", 10)
        .expect("runs");
    println!("golden outputs:   {:?}", golden.outputs());

    // 3. Corrupt one value mid-run and watch the outputs re-converge.
    let injected = Vm::new(&module, inputs(), ExecOptions::default())
        .with_injector(Injector::new(7, 9))
        .run("Sensor", "run", 10)
        .expect("runs");
    println!("injected outputs: {:?}", injected.outputs());

    let stats = compare_runs(&golden.iteration_outputs, &injected.iteration_outputs, 0.0);
    println!(
        "diverged: {}, recovered after {} iteration(s) — the lattice has height {}, which bounds the self-stabilization period",
        stats.diverged,
        stats.recovery_iterations,
        report
            .lattices
            .field_lattice("Sensor")
            .map(|l| l.height())
            .unwrap_or(0),
    );
    assert!(stats.recovery_iterations <= 2);
}
