//! LEA-like eye tracker (§6.1): per iteration it takes image features,
//! localizes a face, derives an eye position, keeps the last three
//! positions in SSJava arrays, and outputs one of eight movement
//! directions. All state except the 3-deep history is overwritten each
//! iteration, so the worst-case self-stabilization period is three
//! iterations.

use sjava_runtime::{FnInput, InputProvider, Value};

/// Entry class and method.
pub const ENTRY: (&str, &str) = ("EyeTracker", "track");

/// Manually annotated source.
pub const SOURCE: &str = r#"
@LATTICE("DIRL<DEV,DEV<HIST,HIST<EYE,EYE<FACE,FACE<IMG")
class EyeTracker {
    @LOC("FACE") int faceX;
    @LOC("FACE") int faceY;
    @LOC("EYE") int eyeX;
    @LOC("EYE") int eyeY;
    @LOC("HIST") int[] histX;
    @LOC("HIST") int[] histY;

    @LATTICE("TOBJ<RAW") @THISLOC("TOBJ")
    void track() {
        histX = new int[3];
        histY = new int[3];
        SSJAVA: while (true) {
            // feature extraction from the synthetic camera frame
            @LOC("RAW") int brightness = Device.readBrightness();
            @LOC("RAW") int rawFaceX = Device.readFaceX();
            @LOC("RAW") int rawFaceY = Device.readFaceY();
            @LOC("RAW") int rawEyeDX = Device.readEyeDX();
            @LOC("RAW") int rawEyeDY = Device.readEyeDY();

            // face localization narrows the eye search region
            faceX = rawFaceX + brightness / 64;
            faceY = rawFaceY - brightness / 64;

            // eye detection relative to the face
            eyeX = faceX + rawEyeDX;
            eyeY = faceY + rawEyeDY;

            // keep the last three positions (newest at the top index)
            SSJavaArray.insert(histX, eyeX);
            SSJavaArray.insert(histY, eyeY);

            // movement estimation from the history deviation
            @LOC("TOBJ,DEV") int devX = histX[2] - histX[0];
            @LOC("TOBJ,DEV") int devY = histY[2] - histY[0];
            @LOC("TOBJ,DIRL") int dirX = 0;
            if (devX > 3) {
                dirX = 1;
            } else {
                if (devX < -3) {
                    dirX = 2;
                }
            }
            @LOC("TOBJ,DIRL") int dirY = 0;
            if (devY > 3) {
                dirY = 1;
            } else {
                if (devY < -3) {
                    dirY = 2;
                }
            }
            Out.emit(dirX + dirY * 3);
        }
    }
}
"#;

/// Deterministic synthetic camera features: a face wandering on a slow
/// Lissajous path with small eye saccades.
pub fn inputs(seed: u64) -> impl InputProvider + Clone {
    FnInput::new(move |channel, i| {
        let t = (i / 5) as f64 * 0.21 + seed as f64;
        match channel {
            "readBrightness" => Value::Int(128 + ((t * 2.0).sin() * 32.0) as i64),
            "readFaceX" => Value::Int(320 + (t.sin() * 120.0) as i64),
            "readFaceY" => Value::Int(240 + ((t * 0.6).cos() * 80.0) as i64),
            "readEyeDX" => Value::Int(((t * 3.1).sin() * 9.0) as i64),
            "readEyeDY" => Value::Int(((t * 2.3).cos() * 9.0) as i64),
            _ => Value::Int(0),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_core::check_program;
    use sjava_runtime::{compare_runs, compile, ExecOptions, Injector, Vm};

    #[test]
    fn checks_self_stabilizing() {
        let p = sjava_syntax::parse(SOURCE).expect("parses");
        let report = check_program(&p);
        assert!(report.is_ok(), "{}", report.diagnostics);
    }

    #[test]
    fn runs_and_emits_directions() {
        let p = sjava_syntax::parse(SOURCE).expect("parses");
        let module = compile(&p);
        let r = Vm::new(&module, inputs(0), ExecOptions::default())
            .run(ENTRY.0, ENTRY.1, 25)
            .expect("runs");
        assert_eq!(r.iteration_outputs.len(), 25);
        for it in &r.iteration_outputs {
            let Value::Int(d) = it[0] else { panic!() };
            assert!((0..9).contains(&d), "direction {d} out of range");
        }
    }

    #[test]
    fn recovers_within_three_iterations() {
        let p = sjava_syntax::parse(SOURCE).expect("parses");
        let module = compile(&p);
        let golden = Vm::new(&module, inputs(0), ExecOptions::default())
            .run(ENTRY.0, ENTRY.1, 40)
            .expect("golden");
        for seed in 0..30u64 {
            let trigger = 100 + seed * 17;
            let run = Vm::new(&module, inputs(0), ExecOptions::default())
                .with_injector(Injector::new(seed, trigger))
                .run(ENTRY.0, ENTRY.1, 40)
                .expect("injected");
            let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 0.0);
            if stats.diverged {
                assert!(
                    stats.recovery_iterations <= 3,
                    "seed {seed}: {} iterations",
                    stats.recovery_iterations
                );
            }
        }
    }
}
