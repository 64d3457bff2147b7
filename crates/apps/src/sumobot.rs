//! Sumo-robot controller (§6.1): per iteration it reads a sonar sensor
//! (opponent range) and a line sensor (ring edge), picks a movement
//! strategy, and issues a motor command. The motor controller is trusted
//! and its command arguments are overwritten every iteration, as in the
//! paper's modified benchmark. Driven by simulated sensor inputs, as in
//! the paper's evaluation.

use sjava_runtime::{FnInput, InputProvider, Value};

/// Entry class and method.
pub const ENTRY: (&str, &str) = ("SumoRobot", "control");

/// Manually annotated source.
pub const SOURCE: &str = r#"
@LATTICE("MC<STRAT,STRAT<SPD,SPD<MOV,MOV<CMD,CMD<SON,CMD<LIN")
class SumoRobot {
    @LOC("SON") int sonar;
    @LOC("LIN") int line;
    @LOC("MOV") int moveType;
    @LOC("SPD") int speed;
    @LOC("MC") MotorController motor;
    @LOC("STRAT") StrategyMgr strategy;

    @LATTICE("ROBJ<IN") @THISLOC("ROBJ")
    void control() {
        motor = new MotorController();
        strategy = new StrategyMgr();
        SSJAVA: while (true) {
            sonar = Device.readSonar();
            line = Device.readLine();
            moveType = strategy.decideMove(sonar, line);
            speed = strategy.decideSpeed(sonar, line, moveType);
            motor.drive(moveType, speed);
            Out.emit(moveType);
            Out.emit(speed);
        }
    }
}

class StrategyMgr {
    // decide the movement type: 1 = retreat from edge, 2 = attack,
    // 3 = search
    @LATTICE("SMOBJ<MV,MV<MEET,MEET<S,MEET<L") @THISLOC("SMOBJ") @RETURNLOC("MV")
    int decideMove(@LOC("S") int s, @LOC("L") int l) {
        @LOC("MV") int mv = 3;
        if (l < 20) {
            mv = 1;
        } else {
            if (s < 50) {
                mv = 2;
            }
        }
        return mv;
    }

    // decide the speed for the chosen movement
    @LATTICE("SMOBJ2<SP,SP<M,M<MEET2,MEET2<S2,MEET2<L2") @THISLOC("SMOBJ2") @RETURNLOC("SP")
    int decideSpeed(@LOC("S2") int s, @LOC("L2") int l, @LOC("M") int m) {
        @LOC("SP") int sp = 30;
        if (m == 1) {
            sp = 0 - 60 + l;
        } else {
            if (m == 2) {
                sp = 90 - s;
            }
        }
        return sp;
    }
}

@TRUSTED
class MotorController {
    int lastMove;
    int lastSpeed;
    void drive(int mv, int sp) {
        // the hardware keeps executing the last command; both arguments
        // are refreshed by the caller every iteration
        lastMove = mv;
        lastSpeed = sp;
    }
}
"#;

/// Deterministic simulated arena: the opponent closes and retreats; the
/// ring edge approaches periodically.
pub fn inputs(seed: u64) -> impl InputProvider + Clone {
    FnInput::new(move |channel, i| {
        let t = i as f64 * 0.37 + seed as f64 * 0.5;
        match channel {
            "readSonar" => Value::Int(80 + (t.sin() * 70.0) as i64),
            "readLine" => Value::Int(40 + ((t * 1.3).cos() * 35.0) as i64),
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
    fn runs_and_issues_commands() {
        let p = sjava_syntax::parse(SOURCE).expect("parses");
        let module = compile(&p);
        let r = Vm::new(&module, inputs(0), ExecOptions::default())
            .run(ENTRY.0, ENTRY.1, 30)
            .expect("runs");
        assert_eq!(r.iteration_outputs.len(), 30);
        // Every strategy appears over time.
        let moves: Vec<i64> = r
            .iteration_outputs
            .iter()
            .map(|it| match it[0] {
                Value::Int(m) => m,
                _ => -1,
            })
            .collect();
        assert!(moves.contains(&1), "retreat used: {moves:?}");
        assert!(moves.contains(&2), "attack used: {moves:?}");
    }

    #[test]
    fn recovers_by_next_iteration() {
        // §6.2.3: the controller is stateless per iteration, so any
        // injected error is gone by the next iteration.
        let p = sjava_syntax::parse(SOURCE).expect("parses");
        let module = compile(&p);
        let golden = Vm::new(&module, inputs(0), ExecOptions::default())
            .run(ENTRY.0, ENTRY.1, 40)
            .expect("golden");
        for seed in 0..30u64 {
            let trigger = 30 + seed * 11;
            let run = Vm::new(&module, inputs(0), ExecOptions::default())
                .with_injector(Injector::new(seed, trigger))
                .run(ENTRY.0, ENTRY.1, 40)
                .expect("injected");
            let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 0.0);
            if stats.diverged {
                assert!(
                    stats.recovery_iterations <= 1,
                    "seed {seed}: {} iterations",
                    stats.recovery_iterations
                );
            }
        }
    }
}
