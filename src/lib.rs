//! # Self-Stabilizing Java (SJava) — a Rust reproduction
//!
//! This crate is the facade over the full reproduction of *Self-Stabilizing
//! Java* (Eom & Demsky, PLDI 2012) and its *SInfer* annotation-inference
//! extension (ISSRE 2013): a checker that statically verifies that a
//! program recovers from arbitrary state corruption within a bounded
//! number of event-loop iterations.
//!
//! The pipeline:
//!
//! 1. [`parse`] SJava dialect source (Java subset + `@LATTICE`/`@LOC`/…
//!    annotations and the `SSJAVA:` event-loop label);
//! 2. [`check`] self-stabilization: the flow-down location type system,
//!    linear-type aliasing, the definitely-written eviction analysis,
//!    shared locations, and loop termination;
//! 3. [`infer_annotations`] when the source is unannotated;
//! 4. [`compile`] to register bytecode and execute on the [`Vm`] under
//!    crash-avoidance semantics, optionally with seeded error injection,
//!    and measure recovery with [`compare_runs`].
//!
//! ```
//! use sjava::{parse, check};
//!
//! let program = parse(
//!     r#"@LATTICE("LO<HI") @METHODDEFAULT("V<IN") @THISLOC("V")
//!        class Sensor {
//!            @LOC("HI") int cur; @LOC("LO") int prev;
//!            void run() {
//!                SSJAVA: while (true) {
//!                    @LOC("IN") int x = Device.read();
//!                    prev = cur;
//!                    cur = x;
//!                    Out.emit(prev + cur);
//!                }
//!            }
//!        }"#,
//! ).expect("parses");
//! let report = check(&program);
//! assert!(report.is_ok(), "{}", report.diagnostics);
//! ```

#![warn(missing_docs)]

pub use sjava_analysis as analysis;
pub use sjava_apps as apps;
pub use sjava_cache as cache;
pub use sjava_core as core;
pub use sjava_infer as infer;
pub use sjava_lattice as lattice;
pub use sjava_runtime as runtime;
pub use sjava_syntax as syntax;

pub use sjava_core::{check_program as check, CheckReport};
pub use sjava_infer::{infer as infer_annotations, InferenceResult, Mode};
pub use sjava_runtime::{
    compare_runs, compile, ExecOptions, Injector, RecoveryStats, ScriptedInput, Value, Vm,
};
pub use sjava_syntax::{parse, Diagnostics, Program};
