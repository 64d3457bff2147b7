//! The campaign rejoin probes of `probes.sj` and the inputs they run
//! on, in one place for every test that replays them: the campaign unit
//! tests of `sjava-runtime` and `sjava-bench`'s `vm_equiv`. Each
//! includer brings its crate's `ScriptedInput` and `Value` into scope.

use super::{ScriptedInput, Value};

/// The probes, as `(name, source)` pairs.
pub fn probes() -> impl Iterator<Item = (&'static str, &'static str)> {
    include_str!("probes.sj")
        .split("// probe: ")
        .skip(1)
        .map(|p| p.split_once('\n').expect("a probe name line"))
}

/// The inputs of every probe.
pub fn probe_inputs() -> ScriptedInput {
    ScriptedInput::new()
        .channel("read", [1, 1, 2, 2, 3, 3, 5, 5].map(Value::Int).to_vec())
        .channel("readFloat", [-0.5, -1.5, -2.0].map(Value::Float).to_vec())
}
