//! The wind-direction sensor of Fig 2.1 — the paper's running example,
//! manually annotated.

use sjava_runtime::{FnInput, InputProvider, Value};

/// Entry class and method.
pub const ENTRY: (&str, &str) = ("WDSensor", "windDirection");

/// Fully annotated source (Fig 2.1, completed with a median vote).
pub const SOURCE: &str = r#"
@LATTICE("DIR<TMP,TMP<BIN")
class WDSensor {
    @LOC("BIN") WindRec bin;
    @LOC("DIR") int dir;

    @LATTICE("STR<WDOBJ,WDOBJ<IN") @THISLOC("WDOBJ")
    void windDirection() {
        bin = new WindRec();
        SSJAVA: while (true) {
            @LOC("IN") int inDir = Device.readSensor();
            // move old wind directions one step down
            bin.dir2 = bin.dir1;
            bin.dir1 = bin.dir0;
            // add a new wind direction
            bin.dir0 = inDir;
            @LOC("STR") int outDir = calculate();
            Out.emit(outDir);
        }
    }

    @LATTICE("OUT<TMPD,TMPD<CAOBJ") @THISLOC("CAOBJ") @RETURNLOC("OUT")
    int calculate() {
        // majority vote of the last three directions to mask sensor noise
        @LOC("CAOBJ,TMP") int majorDir = bin.dir0;
        if (bin.dir1 == bin.dir2) {
            majorDir = bin.dir1;
        }
        this.dir = majorDir;
        @LOC("OUT") int strDir = majorDir;
        return strDir;
    }
}
@LATTICE("DIR2<DIR1,DIR1<DIR0")
class WindRec {
    @LOC("DIR0") int dir0;
    @LOC("DIR1") int dir1;
    @LOC("DIR2") int dir2;
}
"#;

/// Deterministic wind-direction inputs (16-point compass, slow drift with
/// occasional sensor glitches).
pub fn inputs(seed: u64) -> impl InputProvider + Clone {
    FnInput::new(move |_channel, i| {
        let base = ((i / 7 + seed) % 16) as i64;
        // every 11th reading glitches
        if i % 11 == 10 {
            Value::Int((base + 8) % 16)
        } else {
            Value::Int(base)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_core::check_program;
    use sjava_runtime::{compile, ExecOptions, Vm};

    #[test]
    fn checks_self_stabilizing() {
        let p = sjava_syntax::parse(SOURCE).expect("parses");
        let report = check_program(&p);
        assert!(report.is_ok(), "{}", report.diagnostics);
    }

    #[test]
    fn runs_and_outputs() {
        let p = sjava_syntax::parse(SOURCE).expect("parses");
        let module = compile(&p);
        let r = Vm::new(&module, inputs(3), ExecOptions::default())
            .run(ENTRY.0, ENTRY.1, 20)
            .expect("runs");
        assert_eq!(r.iteration_outputs.len(), 20);
        assert!(r.error_log.is_empty(), "{:?}", r.error_log);
    }

    #[test]
    fn recovers_within_three_iterations() {
        use sjava_runtime::{compare_runs, Injector};
        let p = sjava_syntax::parse(SOURCE).expect("parses");
        let module = compile(&p);
        let golden = Vm::new(&module, inputs(3), ExecOptions::default())
            .run(ENTRY.0, ENTRY.1, 30)
            .expect("golden");
        for seed in 0..20u64 {
            let trigger = 40 + seed * 13;
            let run = Vm::new(&module, inputs(3), ExecOptions::default())
                .with_injector(Injector::new(seed, trigger))
                .run(ENTRY.0, ENTRY.1, 30)
                .expect("injected");
            let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 0.0);
            if stats.diverged {
                assert!(
                    stats.recovery_iterations <= 3,
                    "seed {seed}: took {} iterations",
                    stats.recovery_iterations
                );
            }
        }
    }
}
