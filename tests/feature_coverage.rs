//! Acceptance tests for the advanced annotation machinery: delta
//! locations (§4.1.7), `@GLOBALLOC` statics (§3.6), `@DELEGATE` ownership
//! transfer (§4.1.6), `@PCLOC` (§4.1.4), composite locals (§3.4), and
//! `@METHODDEFAULT` defaulting — each in a complete program that must be
//! verified self-stabilizing AND execute correctly.

use sjava::{check, compile, parse, ExecOptions, ScriptedInput, Value, Vm};

fn accept_and_run(name: &str, source: &str, entry: (&str, &str), iters: usize) -> Vec<Value> {
    let program = parse(source).unwrap_or_else(|d| panic!("{name} parses: {d}"));
    let module = compile(&program);
    let report = check(&program);
    assert!(report.is_ok(), "{name} must check:\n{}", report.diagnostics);
    let inputs = ScriptedInput::new().channel("read", (1..=iters as i64).map(Value::Int).collect());
    let run = Vm::new(&module, inputs, ExecOptions::default())
        .run(entry.0, entry.1, iters)
        .unwrap_or_else(|e| panic!("{name} runs: {e}"));
    assert!(run.error_log.is_empty(), "{name}: {:?}", run.error_log);
    run.outputs()
}

#[test]
fn delta_locations_order_temporaries() {
    // A temporary that reads one field and writes a lower field of the
    // same object, typed with @DELTA instead of naming a fresh location
    // (the §4.1.7 use case).
    let outputs = accept_and_run(
        "delta",
        r#"@LATTICE("D1<D0")
           class Rec { @LOC("D0") int d0; @LOC("D1") int d1; }
           @LATTICE("REC")
           class A {
               @LOC("REC") Rec rec;
               @LATTICE("V<IN") @THISLOC("V")
               void main() {
                   rec = new Rec();
                   SSJAVA: while (true) {
                       @LOC("IN") int x = Device.read();
                       rec.d0 = x;
                       @DELTA("V,REC,D0") int mid = rec.d0 * 2;
                       rec.d1 = mid;
                       Out.emit(rec.d1);
                   }
               }
           }"#,
        ("A", "main"),
        4,
    );
    assert_eq!(
        outputs,
        vec![Value::Int(2), Value::Int(4), Value::Int(6), Value::Int(8)]
    );
}

#[test]
fn global_statics_with_globalloc() {
    let outputs = accept_and_run(
        "globals",
        r#"@LATTICE("BIAS") class Cfg { static final int GAIN = 3; @LOC("BIAS") static int bias; }
           class A {
               @LATTICE("CF<IN,V<CF") @THISLOC("V") @GLOBALLOC("CF")
               void main() {
                   SSJAVA: while (true) {
                       @LOC("IN") int x = Device.read();
                       Cfg.bias = x;
                       Out.emit(x * Cfg.GAIN + Cfg.bias);
                   }
               }
           }"#,
        ("A", "main"),
        3,
    );
    assert_eq!(outputs, vec![Value::Int(4), Value::Int(8), Value::Int(12)]);
}

#[test]
fn delegate_ownership_transfer_success_path() {
    // The caller builds a fresh record and hands it off; the reference is
    // never touched again, so the transfer is legal.
    let outputs = accept_and_run(
        "delegate ok",
        r#"@LATTICE("OUT<V,V<IN") @METHODDEFAULT("OUT<V,V<IN") @THISLOC("V")
           class A {
               @LOC("OUT") int last;
               void main() {
                   SSJAVA: while (true) {
                       @LOC("IN") R fresh = new R();
                       fresh.v = Device.read();
                       last = consume(fresh);
                       Out.emit(last);
                   }
               }
               @LATTICE("RR<S,S<P") @THISLOC("S") @RETURNLOC("RR")
               int consume(@DELEGATE @LOC("P") R r) {
                   @LOC("RR") int out = r.v + 100;
                   return out;
               }
           }
           @LATTICE("W") class R { @LOC("W") int v; }"#,
        ("A", "main"),
        3,
    );
    assert_eq!(
        outputs,
        vec![Value::Int(101), Value::Int(102), Value::Int(103)]
    );
}

#[test]
fn pcloc_constrains_the_method_body() {
    // A method declaring @PCLOC may only write below that location; this
    // one respects it and the program checks.
    accept_and_run(
        "pcloc ok",
        r#"@LATTICE("LO<MID,MID<HI") @METHODDEFAULT("V<IN") @THISLOC("V")
           class A {
               @LOC("HI") int hi; @LOC("LO") int lo;
               void main() {
                   SSJAVA: while (true) {
                       @LOC("IN") int x = Device.read();
                       hi = x;
                       lo = hi;
                       refresh();
                       Out.emit(lo);
                   }
               }
               @LATTICE("W<PP") @THISLOC("W") @PCLOC("PP")
               void refresh() { lo = hi - 1; }
           }"#,
        ("A", "main"),
        3,
    );
}

#[test]
fn pcloc_violation_is_rejected() {
    let program = parse(
        r#"@LATTICE("LO<MID,MID<HI") @METHODDEFAULT("V<IN") @THISLOC("V")
           class A {
               @LOC("HI") int hi; @LOC("LO") int lo;
               void main() {
                   SSJAVA: while (true) {
                       @LOC("IN") int x = Device.read();
                       hi = x; lo = hi;
                       Out.emit(lo);
                   }
               }
               // Declares a pc BELOW the location it then writes.
               @LATTICE("PP<W") @THISLOC("W") @PCLOC("PP")
               void bad() { hi = 1; }
           }"#,
    )
    .expect("parses");
    // `bad` is unreachable from the loop, so add a call to it.
    let src2 = r#"@LATTICE("LO<MID,MID<HI") @METHODDEFAULT("V<IN") @THISLOC("V")
           class A {
               @LOC("HI") int hi; @LOC("LO") int lo;
               void main() {
                   SSJAVA: while (true) {
                       @LOC("IN") int x = Device.read();
                       hi = x; lo = hi;
                       bad();
                       Out.emit(lo);
                   }
               }
               @LATTICE("PP<W") @THISLOC("W") @PCLOC("PP")
               void bad() { hi = 1; }
           }"#;
    let _ = program;
    let p2 = parse(src2).expect("parses");
    let report = check(&p2);
    assert!(
        !report.is_ok(),
        "writing this.hi under pc ⟨W⟩ must be rejected"
    );
}

#[test]
fn composite_local_bridges_two_fields() {
    // §3.4: "a local variable with a composite location can take a value
    // from one field, and then store it back to another field in the same
    // object".
    accept_and_run(
        "composite local",
        r#"@LATTICE("LOW<MID,MID<HIGH")
           class A {
               @LOC("HIGH") int src; @LOC("LOW") int dst;
               @LATTICE("V<IN") @THISLOC("V")
               void main() {
                   SSJAVA: while (true) {
                       src = Device.read();
                       @LOC("V,MID") int bridge = src * 10;
                       dst = bridge;
                       Out.emit(dst);
                   }
               }
           }"#,
        ("A", "main"),
        3,
    );
}

#[test]
fn methoddefault_applies_to_unannotated_methods() {
    accept_and_run(
        "methoddefault",
        r#"@METHODDEFAULT("OUT<V,V<IN") @THISLOC("V") @RETURNLOC("OUT")
           class A {
               @LOC("OUT") int acc2;
               void main() {
                   SSJAVA: while (true) {
                       @LOC("IN") int x = Device.read();
                       acc2 = twice(x);
                       Out.emit(acc2);
                   }
               }
               int twice(@LOC("IN") int p) {
                   @LOC("OUT") int r = p * 2;
                   return r;
               }
           }"#,
        ("A", "main"),
        3,
    );
}

#[test]
fn maxloop_bound_both_checks_and_executes() {
    let outputs = accept_and_run(
        "maxloop",
        r#"@METHODDEFAULT("CNT<V2,V2<V,V<IN,CNT*") @THISLOC("V")
           class A {
               void main() {
                   SSJAVA: while (true) {
                       @LOC("IN") int x = Device.read();
                       @LOC("CNT") int n = 0;
                       MAXLOOP_7: while (true) { n = n + 1; }
                       Out.emit(n + x * 0);
                   }
               }
           }"#,
        ("A", "main"),
        2,
    );
    assert_eq!(outputs, vec![Value::Int(7), Value::Int(7)]);
}

#[test]
fn trusted_loop_label_is_accepted() {
    accept_and_run(
        "terminate label",
        r#"@METHODDEFAULT("K<V2,V2<V,V<IN,K*") @THISLOC("V")
           class A {
               void main() {
                   SSJAVA: while (true) {
                       @LOC("IN") int x = Device.read();
                       @LOC("K") int k = x;
                       TERMINATE_manual: while (k > 0) { k = k - 1; }
                       Out.emit(k);
                   }
               }
           }"#,
        ("A", "main"),
        3,
    );
}
