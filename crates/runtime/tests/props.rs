//! Property tests for the runtime: VM determinism, crash
//! avoidance never aborting, recovery-measurement laws, and the
//! self-stabilization property itself on a verified program under
//! arbitrary single injections.

use proptest::prelude::*;
use sjava_runtime::{
    compare_runs, compile, inject::InjectKind, ExecOptions, Injector, ScriptedInput, Value, Vm,
};
use sjava_syntax::parse;

const SHIFT_SRC: &str = "
class S { int h0; int h1; int h2;
    void main() {
        SSJAVA: while (true) {
            int x = Device.read();
            h2 = h1; h1 = h0; h0 = x;
            Out.emit(h0 + 2 * h1 + 3 * h2);
        }
    }
}";

fn inputs(values: &[i64]) -> ScriptedInput {
    ScriptedInput::new().channel("read", values.iter().map(|&v| Value::Int(v)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vm_is_deterministic(vals in prop::collection::vec(-100i64..100, 1..20)) {
        let p = parse(SHIFT_SRC).expect("parses");
        let a = Vm::new(&compile(&p), inputs(&vals), ExecOptions::default())
            .run("S", "main", 12).expect("runs");
        let b = Vm::new(&compile(&p), inputs(&vals), ExecOptions::default())
            .run("S", "main", 12).expect("runs");
        prop_assert_eq!(a.iteration_outputs, b.iteration_outputs);
        prop_assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn verified_program_recovers_within_lattice_depth(
        seed in 0u64..5000,
        trigger in 1u64..60,
        heap_kind in any::<bool>(),
    ) {
        // The 3-deep shift register self-stabilizes in ≤3 iterations from
        // ANY single corruption — the runtime face of Theorem 4.5.3.
        let p = parse(SHIFT_SRC).expect("parses");
        let vals: Vec<i64> = (0..40).map(|i| (i * 7 % 23) as i64).collect();
        let golden = Vm::new(&compile(&p), inputs(&vals), ExecOptions::default())
            .run("S", "main", 15).expect("golden");
        let kind = if heap_kind { InjectKind::Heap } else { InjectKind::Op };
        let run = Vm::new(&compile(&p), inputs(&vals), ExecOptions::default())
            .with_injector(Injector::with_kind(seed, trigger, kind))
            .run("S", "main", 15).expect("injected");
        let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 0.0);
        if stats.diverged {
            prop_assert!(
                stats.recovery_iterations <= 3,
                "seed {seed} trigger {trigger} kind {kind:?}: {} iterations",
                stats.recovery_iterations
            );
        }
    }

    #[test]
    fn crash_avoidance_never_aborts(vals in prop::collection::vec(-5i64..5, 1..10)) {
        // Null derefs, division by zero, array OOB — all logged, never
        // fatal in ignore-errors mode.
        let src = "
            class C { R r; int[] a;
                void main() {
                    SSJAVA: while (true) {
                        int x = Device.read();
                        Out.emit(100 / x);
                        Out.emit(r.v);
                        a = new int[2];
                        Out.emit(a[x + 10]);
                    }
                }
            }
            class R { int v; }";
        let p = parse(src).expect("parses");
        let r = Vm::new(&compile(&p), inputs(&vals), ExecOptions::default())
            .run("C", "main", 6).expect("ignore-errors mode never aborts");
        prop_assert_eq!(r.iteration_outputs.len(), 6);
        prop_assert!(!r.error_log.is_empty());
    }

    #[test]
    fn compare_runs_laws(
        g in prop::collection::vec(prop::collection::vec(-9i64..9, 0..4), 0..5),
        j in prop::collection::vec(prop::collection::vec(-9i64..9, 0..4), 0..5),
    ) {
        let gv: Vec<Vec<Value>> = g.iter().map(|it| it.iter().map(|&v| Value::Int(v)).collect()).collect();
        let jv: Vec<Vec<Value>> = j.iter().map(|it| it.iter().map(|&v| Value::Int(v)).collect()).collect();
        // Identity: comparing a run against itself never diverges.
        let selfcmp = compare_runs(&gv, &gv, 0.0);
        prop_assert!(!selfcmp.diverged);
        prop_assert_eq!(selfcmp.recovery_samples, 0);
        // Symmetric divergence detection.
        let ab = compare_runs(&gv, &jv, 0.0);
        let ba = compare_runs(&jv, &gv, 0.0);
        prop_assert_eq!(ab.diverged, ba.diverged);
        // Divergence implies structural inequality (the converse can fail
        // only for trailing empty iterations, which carry no samples).
        if ab.diverged {
            prop_assert!(gv != jv);
        }
        if gv == jv {
            prop_assert!(!ab.diverged);
        }
        // Window sanity.
        if let (Some(f), Some(l)) = (ab.first_bad_sample, ab.last_bad_sample) {
            prop_assert!(f <= l);
            prop_assert_eq!(ab.recovery_samples, l - f + 1);
        }
        if let (Some(f), Some(l)) = (ab.first_bad_iteration, ab.last_bad_iteration) {
            prop_assert!(f <= l);
            prop_assert_eq!(ab.recovery_iterations, l - f + 1);
        }
    }

    #[test]
    fn injected_run_reaches_the_end(seed in 0u64..500, trigger in 1u64..200) {
        // Injection must never make the VM fail in ignore mode:
        // the program always completes its scheduled iterations.
        let p = parse(SHIFT_SRC).expect("parses");
        let vals: Vec<i64> = (0..40).collect();
        let run = Vm::new(&compile(&p), inputs(&vals), ExecOptions::default())
            .with_injector(Injector::new(seed, trigger))
            .run("S", "main", 10).expect("runs");
        prop_assert_eq!(run.iteration_outputs.len(), 10);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn burst_injections_still_recover(
        seed in 0u64..2000,
        triggers in prop::collection::vec(1u64..60, 1..6),
    ) {
        // Any *finite* set of corruptions washes out within the lattice
        // depth of the LAST one (§1.1.2: self-stabilization is not
        // single-fault tolerance).
        let p = parse(SHIFT_SRC).expect("parses");
        let vals: Vec<i64> = (0..40).map(|i| (i * 5 % 17) as i64).collect();
        let golden = Vm::new(&compile(&p), inputs(&vals), ExecOptions::default())
            .run("S", "main", 20).expect("golden");
        let run = Vm::new(&compile(&p), inputs(&vals), ExecOptions::default())
            .with_injector(Injector::burst(seed, triggers.clone(), InjectKind::Op))
            .run("S", "main", 20).expect("injected");
        let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 0.0);
        if let Some(last_bad) = stats.last_bad_iteration {
            // Steps per iteration ≈ 7; the last trigger lands in iteration
            // trigger/7. Recovery ≤ 3 iterations beyond it.
            let last_trigger = *triggers.iter().max().expect("nonempty");
            let iter_of_last = (last_trigger / 6) as usize;
            prop_assert!(
                last_bad <= iter_of_last + 3,
                "bad at iteration {last_bad}, last trigger step {last_trigger}"
            );
        }
    }
}
