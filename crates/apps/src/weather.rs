//! The weather-index example of Fig 5.1 / Fig 5.15 — the running example
//! of the inference chapter. Shipped *unannotated*: its annotations are
//! meant to be inferred.

use sjava_runtime::{FnInput, InputProvider, Value};

/// Entry class and method.
pub const ENTRY: (&str, &str) = ("Weather", "calculateIndex");

/// Unannotated source (Fig 5.1): the heat-index computation.
pub const SOURCE: &str = r#"
class Weather {
    float prevTemp;
    float avgTemp;
    float curHum;
    float index;

    void calculateIndex() {
        SSJAVA: while (true) {
            float inTemp = Device.readTemp();
            curHum = Device.readHumidity();
            // calculate the average temperature
            avgTemp = (prevTemp + inTemp) / 2.0;
            prevTemp = inTemp;

            float f1 = -0.22475541 * avgTemp * curHum;
            float f2 = -0.00683783 * avgTemp * avgTemp;
            float f3 = -0.05481717 * curHum * curHum;
            float f4 = 0.00122874 * f2 * curHum;
            float f5 = 0.00085282 * f3 * avgTemp;
            float f6 = -0.00000199 * f1 * f2;

            index = -42.379 + 2.04901523 * avgTemp + 10.14333127 * curHum +
                    f1 + f2 + f3 + f4 + f5 + f6;

            Out.emit(index);
        }
    }
}
"#;

/// Deterministic temperature/humidity inputs (daily-ish cycles).
pub fn inputs(seed: u64) -> impl InputProvider + Clone {
    FnInput::new(move |channel, i| {
        let t = (i as f64 + seed as f64) * 0.13;
        if channel.contains("Temp") {
            Value::Float(80.0 + 12.0 * t.sin())
        } else {
            Value::Float(55.0 + 20.0 * (t * 0.7).cos())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_core::check_program;
    use sjava_infer::{infer, Mode};
    use sjava_runtime::{compile, ExecOptions, Vm};
    use sjava_syntax::pretty::print_program;

    #[test]
    fn runs_and_outputs() {
        let p = sjava_syntax::parse(SOURCE).expect("parses");
        let module = compile(&p);
        let r = Vm::new(&module, inputs(1), ExecOptions::default())
            .run(ENTRY.0, ENTRY.1, 8)
            .expect("runs");
        assert_eq!(r.iteration_outputs.len(), 8);
    }

    #[test]
    fn inference_annotates_and_checks() {
        let p = sjava_syntax::parse(SOURCE).expect("parses");
        for mode in [Mode::Naive, Mode::SInfer] {
            let result = infer(&p, mode).unwrap_or_else(|d| panic!("{mode:?}: {d}"));
            let printed = print_program(&result.annotated);
            let reparsed = sjava_syntax::parse(&printed).expect("reparses");
            let report = check_program(&reparsed);
            assert!(
                report.is_ok(),
                "{mode:?}:\n{}\n{printed}",
                report.diagnostics
            );
        }
    }

    #[test]
    fn inferred_lattice_orders_prev_below_input_chain() {
        let p = sjava_syntax::parse(SOURCE).expect("parses");
        let result = infer(&p, Mode::SInfer).expect("sinfer");
        let lat = &result.lattices.fields["Weather"];
        let prev = lat.get("prevTemp").expect("prevTemp");
        let avg = lat.get("avgTemp").expect("avgTemp");
        let index = lat.get("index").expect("index");
        // index is the lowest field; avgTemp is above it.
        assert!(lat.lt(index, avg));
        let _ = prev;
    }

    #[test]
    fn recovers_within_two_iterations() {
        use sjava_runtime::{compare_runs, Injector};
        let p = sjava_syntax::parse(SOURCE).expect("parses");
        let module = compile(&p);
        let golden = Vm::new(&module, inputs(1), ExecOptions::default())
            .run(ENTRY.0, ENTRY.1, 30)
            .expect("golden");
        for seed in 0..20u64 {
            let trigger = 20 + seed * 9;
            let run = Vm::new(&module, inputs(1), ExecOptions::default())
                .with_injector(Injector::new(seed, trigger))
                .run(ENTRY.0, ENTRY.1, 30)
                .expect("injected");
            let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 0.0);
            if stats.diverged {
                // avgTemp carries one frame of history (prevTemp): two
                // iterations bound the recovery.
                assert!(
                    stats.recovery_iterations <= 2,
                    "seed {seed}: {} iterations",
                    stats.recovery_iterations
                );
            }
        }
    }
}
