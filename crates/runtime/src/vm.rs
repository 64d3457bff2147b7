//! Register-bytecode dispatch loop: the runtime's one execution
//! engine.
//!
//! Executes [`crate::bytecode::Module`]s with the paper's §4.4
//! crash-avoidance semantics. In *ignore-errors* mode (the paper's
//! code-generation option) failing operations get defined behaviour: a
//! null-pointer dereference yields the field type's default,
//! out-of-bounds reads yield defaults, out-of-bounds writes are dropped
//! and division by zero yields zero, each logged; a hard error inside an
//! event-loop body aborts only that iteration. In strict mode the same
//! events abort execution with a [`RuntimeError`].
//!
//! The VM counts *steps* (one per value written and one per arithmetic
//! operation) and gives a seeded [`Injector`] its chance at every step.
//! Output traces of the paper apps and the stress corpus are pinned by
//! the trace fixtures of `crates/bench/tests/vm_equiv.rs`.
//!
//! A `Vm` is built once per compiled module and reused across runs:
//! [`Vm::run`] resets the flat heap and register file in place, and
//! [`Vm::prepare`]/[`Vm::snapshot`]/[`Vm::restore`]/[`Vm::resume`] skip
//! re-instantiating the entry object between runs.
//!
//! Campaigns replay far less. With checkpointing on, the dispatch loop
//! pauses after every head of the entry frame's event loop (`ElHead`
//! runs once per iteration, so the per-op cost is unchanged) and logs
//! the channel of every `Device.*` read. The golden run captures a
//! checkpoint of the whole machine at each pause. A trial restores the
//! last checkpoint before its fault, and at each later head asks whether
//! its state is bitwise that of the golden run there, with the same
//! reads since the restore and a spent injector; from such a head on
//! the run can only repeat the golden one.

use crate::bytecode::{FlatHeap, FlatHeapSnapshot};
use crate::bytecode::{Module, Op, StoreFallback, VarFallback};
use crate::inject::Injector;
use crate::input::InputProvider;
use crate::value::{ObjId, Value};
use std::fmt;

/// A runtime failure (strict mode, or a hard error outside the event
/// loop body).
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for RuntimeError {}

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// §4.4 crash avoidance: log-and-continue on errors.
    pub ignore_errors: bool,
    /// Per-iteration step budget (guards runaway inner loops).
    pub max_steps_per_iter: u64,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            ignore_errors: true,
            max_steps_per_iter: 50_000_000,
        }
    }
}

/// Result of executing an event loop for a number of iterations.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// `Out.*` values grouped by event-loop iteration.
    pub iteration_outputs: Vec<Vec<Value>>,
    /// Total steps executed (writes + arithmetic ops).
    pub steps: u64,
    /// Crash-avoidance log entries.
    pub error_log: Vec<String>,
    /// The step at which the injector fired, if any.
    pub injected_at: Option<u64>,
}

impl RunResult {
    /// All outputs flattened in order.
    pub fn outputs(&self) -> Vec<Value> {
        self.iteration_outputs.iter().flatten().cloned().collect()
    }
}

/// Why the dispatch loop stopped executing ops.
enum OpStop {
    /// A hard runtime error (or a soft one in strict mode).
    Err(RuntimeError),
    /// The event loop finished its scheduled iterations.
    LoopDone,
    /// Checkpointing: a head of the entry event loop just passed.
    Head,
}

/// Whether `a` and `b` have the same length and `same` holds pairwise.
fn all_same<T>(a: &[T], b: &[T], same: impl Fn(&T, &T) -> bool) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
}

fn stop(msg: impl Into<String>) -> OpStop {
    OpStop::Err(RuntimeError {
        message: msg.into(),
    })
}

/// One activation record. Registers live in the shared `Vm::regs`
/// arena at `base .. base + chunk.n_regs`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct VmFrame {
    chunk: u32,
    pc: usize,
    base: usize,
    /// Absolute register receiving the return value (0 = discard).
    dst: usize,
    this: Option<usize>,
    iterations_left: usize,
    /// Field/static-initializer frames: an event loop unwinding
    /// through one is an `unreachable!` panic.
    init: bool,
}

/// A virtual call between `VPrep` (receiver resolved) and `VCallGo`
/// (arguments evaluated): `k` is the zip-truncated argument count.
struct Pending {
    chunk: u32,
    k: u16,
}

/// The active event loop: where to re-enter on a caught iteration
/// abort, and how much machine state to unwind.
#[derive(Debug, Clone)]
struct ElCtx {
    frame: usize,
    head_pc: usize,
    regs_len: usize,
    pending_len: usize,
    /// Armed only while a body iteration runs — condition errors and
    /// `LoopDone` are never caught.
    armed: bool,
}

/// An entry prepared by [`Vm::prepare`]: the instantiated receiver and
/// the resolved entry chunk, valid for this VM until the next
/// `prepare`/`run` (and again after [`Vm::restore`] of a snapshot taken
/// in the prepared state).
#[derive(Debug, Clone, Copy)]
pub struct Prepared {
    obj: usize,
    entry: u32,
    /// Steps consumed by instantiation — a trial whose trigger lies
    /// beyond this can resume from a post-`prepare` snapshot.
    pub steps: u64,
}

/// Full restorable VM state (heap, statics, step counter, error log,
/// input cursor) captured between runs — campaigns snapshot once after
/// [`Vm::prepare`] and [`Vm::restore`] per trial.
#[derive(Debug, Clone)]
pub struct VmSnapshot<I> {
    heap: FlatHeapSnapshot,
    statics: Vec<Option<Value>>,
    steps: u64,
    log: Vec<String>,
    inputs: I,
}

/// The machine state just after one head of the entry event loop,
/// captured by [`Vm::run_checkpointed`]. The output, log and read-log
/// prefixes are lengths into the golden run's, which only ever grow.
#[derive(Debug)]
pub(crate) struct Checkpoint<I> {
    heap: FlatHeapSnapshot,
    statics: Vec<Option<Value>>,
    regs: Vec<Value>,
    defined: Vec<bool>,
    frame: VmFrame,
    el: Option<ElCtx>,
    /// Steps taken before this head: a trial whose trigger lies beyond
    /// runs exactly as the golden run up to here.
    pub(crate) steps: u64,
    iter_start_step: u64,
    inputs: I,
    /// Iterations started before this head (`heads[iteration]` is this).
    iteration: usize,
    log_len: usize,
    reads: usize,
}

impl<I> Checkpoint<I> {
    /// Bytes this checkpoint holds: its own record, heap slots and
    /// entries, statics, registers and their flags. Heap memory the
    /// input state owns and the payloads of string values are not
    /// counted.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + FlatHeap::snapshot_bytes(&self.heap)
            + std::mem::size_of_val(self.statics.as_slice())
            + std::mem::size_of_val(self.regs.as_slice())
            + self.defined.len()
    }
}

/// The checkpoints of one golden run, one per head of the entry event
/// loop up to a byte budget, and its read log.
#[derive(Debug)]
pub(crate) struct Checkpoints<I> {
    /// One per head of the entry event loop, in run order: `heads[k]`
    /// is the head of iteration `k`. Past the budget the list ends
    /// early.
    pub(crate) heads: Vec<Checkpoint<I>>,
    /// Channel name id of every `Device.*` read, from instantiation on.
    reads: Vec<u32>,
}

/// The bytecode virtual machine. Generic over the input provider;
/// borrows the compiled [`Module`].
pub struct Vm<'m, I: InputProvider> {
    module: &'m Module,
    options: ExecOptions,
    heap: FlatHeap<'m>,
    statics: Vec<Option<Value>>,
    regs: Vec<Value>,
    defined: Vec<bool>,
    frames: Vec<VmFrame>,
    pending: Vec<Pending>,
    outputs: Vec<Vec<Value>>,
    log: Vec<String>,
    steps: u64,
    iter_start_step: u64,
    inputs: I,
    injector: Option<Injector>,
    el: Option<ElCtx>,
    /// Pause after entry heads and log reads (campaign runs only).
    checkpointing: bool,
    /// Channels read since `reads_base` of the golden read log.
    reads: Vec<u32>,
    reads_base: usize,
}

impl<'m, I: InputProvider> Vm<'m, I> {
    /// Creates a VM over a compiled module.
    pub fn new(module: &'m Module, inputs: I, options: ExecOptions) -> Self {
        Vm {
            module,
            options,
            heap: FlatHeap::new(module),
            statics: vec![None; module.statics.len()],
            regs: Vec::new(),
            defined: Vec::new(),
            frames: Vec::new(),
            pending: Vec::new(),
            outputs: Vec::new(),
            log: Vec::new(),
            steps: 0,
            iter_start_step: 0,
            inputs,
            injector: None,
            el: None,
            checkpointing: false,
            reads: Vec::new(),
            reads_base: 0,
        }
    }

    /// Arms an error injector for the next run (builder style).
    pub fn with_injector(mut self, injector: Injector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Replaces the injector for the next run.
    pub fn set_injector(&mut self, injector: Option<Injector>) {
        self.injector = injector;
    }

    /// Replaces the input provider for the next run.
    pub fn set_inputs(&mut self, inputs: I) {
        self.inputs = inputs;
    }

    /// Runs `class.method` (instantiating `class`) for at most
    /// `iterations` event-loop iterations, reusing this VM's
    /// allocations.
    ///
    /// # Errors
    ///
    /// Strict mode propagates runtime failures; ignore-errors mode only
    /// fails on hard errors outside the event body (unknown
    /// method/static, budget exhaustion before the first iteration).
    pub fn run(
        &mut self,
        class: &str,
        method: &str,
        iterations: usize,
    ) -> Result<RunResult, RuntimeError> {
        let prep = self.prepare(class, method)?;
        self.start_entry(&prep, iterations);
        self.finish_run()
    }

    /// Resets the VM and instantiates `class` (running its field
    /// initializers), resolving `method`; the returned token feeds
    /// [`Vm::resume`]. A snapshot taken now can be restored before
    /// every later `resume` to skip re-instantiation — valid for any
    /// injector whose first trigger lies beyond `Prepared::steps`,
    /// since an injector is inert before its trigger.
    ///
    /// # Errors
    ///
    /// Propagates instantiation failures and unknown entry points.
    pub fn prepare(&mut self, class: &str, method: &str) -> Result<Prepared, RuntimeError> {
        self.checkpointing = false;
        self.instantiate(class, method)
    }

    fn instantiate(&mut self, class: &str, method: &str) -> Result<Prepared, RuntimeError> {
        self.reset();
        self.regs.push(Value::Null);
        self.defined.push(true);
        let no_method = || RuntimeError {
            message: format!("no method `{class}.{method}`"),
        };
        let Some(cid) = self.module.class_id(class) else {
            return Err(no_method());
        };
        let obj = self.heap.alloc_object(cid);
        if let Some(ic) = self.module.classes[cid as usize].init_chunk {
            self.push_frame(ic, Some(obj), 0, None, 0, true);
            self.dispatch()?;
        }
        let entry = self
            .module
            .name_id(method)
            .and_then(|nid| self.module.entry_chunk(cid, nid))
            .ok_or_else(no_method)?;
        Ok(Prepared {
            obj,
            entry,
            steps: self.steps,
        })
    }

    /// Runs the prepared entry method to completion. Combined with
    /// [`Vm::restore`], this is the campaign fast path: no re-parse, no
    /// re-compile, no re-instantiation per trial.
    ///
    /// # Errors
    ///
    /// Same as [`Vm::run`].
    pub fn resume(
        &mut self,
        prep: &Prepared,
        iterations: usize,
        injector: Option<Injector>,
    ) -> Result<RunResult, RuntimeError> {
        self.injector = injector;
        if self.regs.is_empty() {
            self.regs.push(Value::Null);
            self.defined.push(true);
        }
        self.start_entry(prep, iterations);
        self.finish_run()
    }

    /// Captures restorable state (requires cloneable inputs).
    pub fn snapshot(&self) -> VmSnapshot<I>
    where
        I: Clone,
    {
        VmSnapshot {
            heap: self.heap.snapshot(),
            statics: self.statics.clone(),
            steps: self.steps,
            log: self.log.clone(),
            inputs: self.inputs.clone(),
        }
    }

    /// Restores a [`Vm::snapshot`], reusing this VM's allocations.
    pub fn restore(&mut self, snap: &VmSnapshot<I>)
    where
        I: Clone,
    {
        self.heap.restore(&snap.heap);
        self.statics.clone_from(&snap.statics);
        self.steps = snap.steps;
        self.iter_start_step = 0;
        self.log.clone_from(&snap.log);
        self.inputs = snap.inputs.clone();
        self.outputs.clear();
        self.regs.clear();
        self.regs.push(Value::Null);
        self.defined.clear();
        self.defined.push(true);
        self.frames.clear();
        self.pending.clear();
        self.el = None;
        self.injector = None;
        self.checkpointing = false;
    }

    /// Runs `class.method` like [`Vm::run`] with checkpointing on, and
    /// captures the machine after every head of the entry event loop
    /// until the checkpoints hold `budget` bytes (see
    /// [`Checkpoint::bytes`]); later heads go uncaptured.
    pub(crate) fn run_checkpointed(
        &mut self,
        class: &str,
        method: &str,
        iterations: usize,
        budget: usize,
    ) -> Result<(RunResult, Checkpoints<I>), RuntimeError>
    where
        I: Clone,
    {
        self.start_checkpointed(class, method, iterations)?;
        let mut heads = Vec::new();
        let mut kept = 0;
        while self.dispatch()? {
            if kept < budget {
                let cp = self.checkpoint();
                kept += cp.bytes();
                heads.push(cp);
            }
        }
        self.checkpointing = false;
        let reads = std::mem::take(&mut self.reads);
        Ok((self.take_result(), Checkpoints { heads, reads }))
    }

    /// Instantiates `class` and enters `method` with checkpointing on;
    /// [`Vm::dispatch`] then runs to the next entry head or the end.
    pub(crate) fn start_checkpointed(
        &mut self,
        class: &str,
        method: &str,
        iterations: usize,
    ) -> Result<(), RuntimeError> {
        // On before instantiation, so initializer reads are logged too.
        self.checkpointing = true;
        let prep = self.instantiate(class, method)?;
        self.start_entry(&prep, iterations);
        Ok(())
    }

    fn checkpoint(&self) -> Checkpoint<I>
    where
        I: Clone,
    {
        debug_assert!(self.frames.len() == 1 && self.pending.is_empty());
        Checkpoint {
            heap: self.heap.snapshot(),
            statics: self.statics.clone(),
            regs: self.regs.clone(),
            defined: self.defined.clone(),
            frame: self.frames[0],
            el: self.el.clone(),
            steps: self.steps,
            iter_start_step: self.iter_start_step,
            inputs: self.inputs.clone(),
            iteration: self.outputs.len(),
            log_len: self.log.len(),
            reads: self.reads.len(),
        }
    }

    /// Puts the machine in the state of checkpoint `cp` of the golden
    /// run `golden`, checkpointing on; the injector is left as it is.
    pub(crate) fn restore_checkpoint(&mut self, cp: &Checkpoint<I>, golden: &RunResult)
    where
        I: Clone,
    {
        self.heap.restore(&cp.heap);
        self.statics.clone_from(&cp.statics);
        self.regs.clone_from(&cp.regs);
        self.defined.clone_from(&cp.defined);
        self.frames.clear();
        self.frames.push(cp.frame);
        self.pending.clear();
        self.el.clone_from(&cp.el);
        self.steps = cp.steps;
        self.iter_start_step = cp.iter_start_step;
        self.inputs.clone_from(&cp.inputs);
        self.outputs.clear();
        self.outputs
            .extend_from_slice(&golden.iteration_outputs[..cp.iteration]);
        self.log.clear();
        self.log.extend_from_slice(&golden.error_log[..cp.log_len]);
        self.checkpointing = true;
        self.reads.clear();
        self.reads_base = cp.reads;
    }

    /// At an entry head: the iteration whose golden checkpoint this
    /// machine has rejoined, if it has. That needs a spent injector, the
    /// golden run's reads since the restore (a deterministic provider
    /// then is in the golden state too), the golden frame, registers,
    /// statics and heap bit for bit, and a step count into the iteration
    /// no higher than the golden one, so the loop condition cannot
    /// exhaust the step budget where the golden run did not. Outputs and
    /// the log are never read back, so they may differ.
    pub(crate) fn rejoined(&self, golden: &Checkpoints<I>) -> Option<usize> {
        let cp = golden.heads.get(self.outputs.len())?;
        let same = self.injector.as_ref().is_none_or(Injector::is_spent)
            && self.pending.is_empty()
            && self.frames.len() == 1
            && self.frames[0] == cp.frame
            && self.steps - self.iter_start_step <= cp.steps - cp.iter_start_step
            && golden.reads.get(self.reads_base..cp.reads) == Some(self.reads.as_slice())
            && self.defined == cp.defined
            && all_same(&self.regs, &cp.regs, Value::same_bits)
            && all_same(&self.statics, &cp.statics, |a, b| match (a, b) {
                (Some(a), Some(b)) => a.same_bits(b),
                _ => a.is_none() && b.is_none(),
            })
            && self.heap.same_bits(&cp.heap);
        same.then_some(cp.iteration)
    }

    /// Ends a checkpointed trial: its outputs followed by `golden_rest`,
    /// and the step its injector fired at.
    pub(crate) fn finish_trial(
        &mut self,
        golden_rest: &[Vec<Value>],
    ) -> (Vec<Vec<Value>>, Option<u64>) {
        let mut outputs = std::mem::take(&mut self.outputs);
        outputs.extend_from_slice(golden_rest);
        (outputs, self.injector.take().and_then(|i| i.fired_at))
    }

    /// Total mutable heap cells in the current state (the heap-slot
    /// grid axis of a campaign).
    pub fn heap_cells(&self) -> usize {
        self.heap.cell_count()
    }

    fn reset(&mut self) {
        self.heap.reset();
        for s in &mut self.statics {
            *s = None;
        }
        self.regs.clear();
        self.defined.clear();
        self.frames.clear();
        self.pending.clear();
        self.outputs.clear();
        self.log.clear();
        self.steps = 0;
        self.iter_start_step = 0;
        self.el = None;
        self.reads.clear();
        self.reads_base = 0;
    }

    fn start_entry(&mut self, prep: &Prepared, iterations: usize) {
        // The entry frame: `this` bound to the fresh instance and the
        // queried class as context even for static entry methods.
        self.push_frame(prep.entry, Some(prep.obj), 0, None, iterations, false);
    }

    fn finish_run(&mut self) -> Result<RunResult, RuntimeError> {
        let r = self.dispatch();
        let result = self.take_result();
        r?;
        Ok(result)
    }

    fn take_result(&mut self) -> RunResult {
        RunResult {
            iteration_outputs: std::mem::take(&mut self.outputs),
            steps: self.steps,
            error_log: std::mem::take(&mut self.log),
            injected_at: self.injector.take().and_then(|i| i.fired_at),
        }
    }

    // ---- machine plumbing -------------------------------------------

    fn push_frame(
        &mut self,
        chunk: u32,
        this: Option<usize>,
        dst: usize,
        args: Option<(usize, u16)>,
        iterations: usize,
        init: bool,
    ) {
        let ch = &self.module.chunks[chunk as usize];
        debug_assert!(ch.n_named <= ch.n_regs, "named slots within register file");
        let base = self.regs.len();
        self.regs.resize(base + ch.n_regs as usize, Value::Null);
        self.defined.resize(base + ch.n_regs as usize, false);
        if let Some((astart, k)) = args {
            for j in 0..k as usize {
                self.regs[base + j] = self.regs[astart + j].clone();
                self.defined[base + j] = true;
            }
        }
        self.frames.push(VmFrame {
            chunk,
            pc: 0,
            base,
            dst,
            this,
            iterations_left: iterations,
            init,
        });
    }

    /// Counts one step: budget check, then the injector's chance to
    /// corrupt the heap and/or this value.
    fn step(&mut self, v: Value) -> Result<Value, OpStop> {
        self.steps += 1;
        if self.steps - self.iter_start_step > self.options.max_steps_per_iter {
            return Err(stop("per-iteration step budget exhausted (runaway loop?)"));
        }
        if let Some(inj) = self.injector.as_mut() {
            inj.corrupt_heap(self.steps, &mut self.heap);
            return Ok(inj.filter(self.steps, v));
        }
        Ok(v)
    }

    fn soft(&mut self, msg: &str, default: Value) -> Result<Value, OpStop> {
        if self.options.ignore_errors {
            self.log.push(msg.to_string());
            Ok(default)
        } else {
            Err(stop(msg))
        }
    }

    /// Runs ops until the machine stops (`Ok(false)`: the event loop
    /// completed its iterations or the frame stack drained) or, with
    /// checkpointing on, pauses just after a head of the entry event
    /// loop (`Ok(true)`; calling again resumes).
    pub(crate) fn dispatch(&mut self) -> Result<bool, RuntimeError> {
        loop {
            if self.frames.is_empty() {
                return Ok(false);
            }
            match self.exec_next() {
                Ok(()) => {}
                Err(OpStop::Head) => return Ok(true),
                Err(OpStop::LoopDone) => {
                    // Initializers contain no event loop, so a
                    // LoopDone can never unwind into one.
                    if self.frames.iter().any(|f| f.init) {
                        unreachable!("no loop in initializer");
                    }
                    self.frames.clear();
                    return Ok(false);
                }
                Err(OpStop::Err(e)) => {
                    let catch = self
                        .el
                        .as_ref()
                        .filter(|el| el.armed && self.options.ignore_errors)
                        .map(|el| (el.frame, el.head_pc, el.regs_len, el.pending_len));
                    match catch {
                        Some((frame, head_pc, regs_len, pending_len)) => {
                            // §4.4: log and continue into the next
                            // iteration, unwinding callee frames.
                            self.log.push(format!("iteration aborted: {e}"));
                            self.frames.truncate(frame + 1);
                            self.regs.truncate(regs_len);
                            self.defined.truncate(regs_len);
                            self.pending.truncate(pending_len);
                            self.frames[frame].pc = head_pc;
                        }
                        None => return Err(e),
                    }
                }
            }
        }
    }

    /// Fetch–decode–execute for one op.
    #[allow(clippy::too_many_lines)]
    fn exec_next(&mut self) -> Result<(), OpStop> {
        let module = self.module;
        let fi = self.frames.len() - 1;
        let (cid, pc, base, this) = {
            let f = &self.frames[fi];
            (f.chunk, f.pc, f.base, f.this)
        };
        let chunk = &module.chunks[cid as usize];
        let op = chunk.ops[pc];
        self.frames[fi].pc = pc + 1;
        let r = |x: u16| base + x as usize;
        match op {
            Op::Const { dst, c } => {
                self.regs[r(dst)] = chunk.consts[c as usize].clone();
            }
            Op::LoadThis { dst } => {
                let v = match this {
                    Some(id) => Value::Ref(ObjId(id)),
                    None => self.soft("`this` in static context", Value::Null)?,
                };
                self.regs[r(dst)] = v;
            }
            Op::LoadLocal { dst, slot, fb } => {
                if self.defined[r(slot)] {
                    self.regs[r(dst)] = self.regs[r(slot)].clone();
                } else {
                    self.load_fallback(fb, this, r(dst))?;
                }
            }
            Op::StoreLocal { slot, src } => {
                self.regs[r(slot)] = self.regs[r(src)].clone();
                self.defined[r(slot)] = true;
            }
            Op::StoreLocalOrField { slot, src, fb } => {
                if self.defined[r(slot)] {
                    self.regs[r(slot)] = self.regs[r(src)].clone();
                } else if let Some(id) = this {
                    let v = self.regs[r(src)].clone();
                    match module.store_fbs[fb as usize] {
                        // Dropped silently when `this` is an array,
                        // like the legacy `write_field`.
                        StoreFallback::Field { off } => {
                            self.heap.layout_write(id, off, v);
                        }
                        StoreFallback::Overflow { name } => {
                            self.heap.write_field(id, name, v);
                        }
                    }
                } else {
                    self.regs[r(slot)] = self.regs[r(src)].clone();
                    self.defined[r(slot)] = true;
                }
            }
            Op::InitField { off, src } => {
                let id = this.expect("initializer has this");
                let v = self.regs[r(src)].clone();
                self.heap.layout_write(id, off, v);
            }
            Op::Arith { dst, a, b, op } => {
                let v = match crate::value::binop_values(op, &self.regs[r(a)], &self.regs[r(b)]) {
                    Ok(v) => v,
                    Err(sf) => self.soft(&sf.msg, sf.default)?,
                };
                let v = self.step(v)?;
                self.regs[r(dst)] = v;
            }
            Op::Cmp { dst, a, b, op } => {
                let v = match crate::value::binop_values(op, &self.regs[r(a)], &self.regs[r(b)]) {
                    Ok(v) => v,
                    Err(sf) => self.soft(&sf.msg, sf.default)?,
                };
                self.regs[r(dst)] = v;
            }
            Op::EqCmp { dst, a, b, ne } => {
                let eq = self.regs[r(a)] == self.regs[r(b)];
                self.regs[r(dst)] = Value::Bool(eq != ne);
            }
            Op::Neg { dst, src } => {
                let v = match &self.regs[r(src)] {
                    Value::Int(i) => Value::Int(i.wrapping_neg()),
                    Value::Float(f) => Value::Float(-f),
                    _ => self.soft("negation of non-number", Value::Int(0))?,
                };
                let v = self.step(v)?;
                self.regs[r(dst)] = v;
            }
            Op::Not { dst, src } => {
                let b = self.regs[r(src)].as_bool().unwrap_or(false);
                self.regs[r(dst)] = Value::Bool(!b);
            }
            Op::CastInt { dst, src } => {
                let v = match &self.regs[r(src)] {
                    Value::Float(f) => Value::Int(*f as i64),
                    other => other.clone(),
                };
                self.regs[r(dst)] = v;
            }
            Op::CastFloat { dst, src } => {
                let v = match &self.regs[r(src)] {
                    Value::Int(i) => Value::Float(*i as f64),
                    other => other.clone(),
                };
                self.regs[r(dst)] = v;
            }
            Op::StepVal { r: x } => {
                let v = self.regs[r(x)].clone();
                let v = self.step(v)?;
                self.regs[r(x)] = v;
            }
            Op::Jump { to } => self.frames[fi].pc = to as usize,
            Op::JumpIfFalse { c, to } => {
                if !self.regs[r(c)].as_bool().unwrap_or(false) {
                    self.frames[fi].pc = to as usize;
                }
            }
            Op::BranchCond { c, to } => {
                let b = match self.regs[r(c)].as_bool() {
                    Some(b) => b,
                    None => self
                        .soft("non-boolean condition", Value::Bool(false))?
                        .as_bool()
                        .unwrap_or(false),
                };
                if !b {
                    self.frames[fi].pc = to as usize;
                }
            }
            Op::SetCounter { r: x } => self.regs[r(x)] = Value::Int(0),
            Op::IncCounter { r: x } => {
                if let Value::Int(i) = &self.regs[r(x)] {
                    self.regs[r(x)] = Value::Int(i.wrapping_add(1));
                }
            }
            Op::JumpCounterGe { r: x, bound, to } => {
                if let Value::Int(i) = &self.regs[r(x)] {
                    if *i >= 0 && (*i as u64) >= bound {
                        self.frames[fi].pc = to as usize;
                    }
                }
            }
            Op::NewObj { dst, class } => {
                let id = self.heap.alloc_object(class);
                self.regs[r(dst)] = Value::Ref(ObjId(id));
                if let Some(ic) = module.classes[class as usize].init_chunk {
                    // Return value (null) discarded into the scratch
                    // register.
                    self.push_frame(ic, Some(id), 0, None, 0, true);
                }
            }
            Op::NewArr { dst, len, c } => {
                let n = self.regs[r(len)].as_i64().unwrap_or(0).max(0) as usize;
                let id = self.heap.alloc_array(&chunk.consts[c as usize], n);
                self.regs[r(dst)] = Value::Ref(ObjId(id));
            }
            Op::LoadField { dst, obj, name } => {
                let v = match self.regs[r(obj)] {
                    Value::Ref(ObjId(id)) => match self.heap.read_field(id, name) {
                        Some(v) => v.clone(),
                        None => {
                            let d = self.field_miss_default(id, name);
                            let msg = format!("missing field `{}`", module.names[name as usize]);
                            self.soft(&msg, d)?
                        }
                    },
                    _ => self.soft("null dereference on field read", Value::Null)?,
                };
                self.regs[r(dst)] = v;
            }
            Op::StoreField { obj, src, name } => match self.regs[r(obj)] {
                Value::Ref(ObjId(id)) => {
                    let v = self.regs[r(src)].clone();
                    self.heap.write_field(id, name, v);
                }
                _ => {
                    self.soft("null dereference on field store", Value::Null)?;
                }
            },
            Op::LoadIndex { dst, arr, idx } => {
                let target = match (&self.regs[r(arr)], self.regs[r(idx)].as_i64()) {
                    (Value::Ref(ObjId(id)), Some(ix)) => Some((*id, ix)),
                    _ => None,
                };
                let v = match target {
                    None => self.soft("bad array read", Value::Int(0))?,
                    Some((id, ix)) => match self.heap.entry(id) {
                        Some(e) if e.is_array() => {
                            if ix >= 0 && (ix as usize) < e.len as usize {
                                self.heap
                                    .array_get(id, ix as usize)
                                    .expect("bounds")
                                    .clone()
                            } else {
                                let d = e.array_default().expect("array").clone();
                                self.soft("array read out of bounds", d)?
                            }
                        }
                        _ => self.soft("array read on non-array", Value::Int(0))?,
                    },
                };
                self.regs[r(dst)] = v;
            }
            Op::StoreIndex { arr, idx, src } => {
                let target = match (&self.regs[r(arr)], self.regs[r(idx)].as_i64()) {
                    (Value::Ref(ObjId(id)), Some(ix)) => Some((*id, ix)),
                    _ => None,
                };
                match target {
                    None => {
                        self.soft("bad array store target", Value::Null)?;
                    }
                    Some((id, ix)) => match self.heap.entry(id) {
                        Some(e) if e.is_array() => {
                            if ix >= 0 && (ix as usize) < e.len as usize {
                                let v = self.regs[r(src)].clone();
                                self.heap.array_set(id, ix as usize, v);
                            } else {
                                self.soft("array store out of bounds", Value::Null)?;
                            }
                        }
                        _ => {
                            self.soft("array store on non-array", Value::Null)?;
                        }
                    },
                }
            }
            Op::ArrLen { dst, arr } => {
                let v = match &self.regs[r(arr)] {
                    Value::Ref(ObjId(id)) => match self.heap.entry(*id) {
                        Some(e) if e.is_array() => Value::Int(e.len as i64),
                        _ => self.soft("length of non-array", Value::Int(0))?,
                    },
                    _ => self.soft("length of null", Value::Int(0))?,
                };
                self.regs[r(dst)] = v;
            }
            Op::LoadStatic { dst, slot } => self.load_static(slot, r(dst))?,
            Op::CacheStatic { slot, src } => {
                self.statics[slot as usize] = Some(self.regs[r(src)].clone());
            }
            Op::StoreStatic { slot, src } => {
                // Unconditional, declaration or not — a later read of
                // an undeclared static then succeeds from the cache,
                // like a plain static map.
                self.statics[slot as usize] = Some(self.regs[r(src)].clone());
            }
            Op::CallDirect {
                dst,
                chunk: target,
                argbase,
                argc,
                pass_this,
            } => {
                let callee_this = if pass_this { this } else { None };
                self.push_frame(
                    target,
                    callee_this,
                    r(dst),
                    Some((r(argbase), argc)),
                    0,
                    false,
                );
            }
            Op::VPrep {
                recv,
                dst,
                name,
                argc,
                end,
            } => {
                match self.regs[r(recv)] {
                    Value::Ref(ObjId(id)) => {
                        // Arrays have no class: dispatch falls back to
                        // the caller's context class.
                        let dyn_cid = self.heap.obj_class(id).unwrap_or(chunk.ctx);
                        let ci = &module.classes[dyn_cid as usize];
                        match ci.vtable.binary_search_by_key(&name, |&(n, _)| n) {
                            Ok(i) => {
                                let target = ci.vtable[i].1;
                                let k = module.chunks[target as usize].n_params.min(argc);
                                self.pending.push(Pending { chunk: target, k });
                            }
                            Err(_) => {
                                // Soft error *before* argument
                                // evaluation.
                                let msg = format!(
                                    "unknown method `{}.{}`",
                                    ci.name, module.names[name as usize]
                                );
                                let v = self.soft(&msg, Value::Null)?;
                                self.regs[r(dst)] = v;
                                self.frames[fi].pc = end as usize;
                            }
                        }
                    }
                    _ => {
                        let v = self.soft("virtual call on null receiver", Value::Null)?;
                        self.regs[r(dst)] = v;
                        self.frames[fi].pc = end as usize;
                    }
                }
            }
            Op::ArgSkip { j, to } => {
                let k = self.pending.last().expect("pending call").k;
                if j >= k {
                    self.frames[fi].pc = to as usize;
                }
            }
            Op::VCallGo { recv, dst, argbase } => {
                let p = self.pending.pop().expect("pending call");
                let Value::Ref(ObjId(id)) = self.regs[r(recv)] else {
                    unreachable!("VPrep checked the receiver");
                };
                let callee_this = if module.chunks[p.chunk as usize].is_static {
                    None
                } else {
                    Some(id)
                };
                self.push_frame(
                    p.chunk,
                    callee_this,
                    r(dst),
                    Some((r(argbase), p.k)),
                    0,
                    false,
                );
            }
            Op::Ret { src } => {
                let f = self.frames.pop().expect("frame");
                let v = std::mem::replace(&mut self.regs[f.base + src as usize], Value::Null);
                self.regs.truncate(f.base);
                self.defined.truncate(f.base);
                if !self.frames.is_empty() {
                    self.regs[f.dst] = v;
                }
            }
            Op::DeviceRead { dst, chan } => {
                if self.checkpointing {
                    self.reads.push(chan);
                }
                let v = self.inputs.next(&module.names[chan as usize]);
                let v = self.step(v)?;
                self.regs[r(dst)] = v;
            }
            Op::Emit { dst, argbase, argc } => {
                let s = r(argbase);
                let vals = self.regs[s..s + argc as usize].to_vec();
                // Emissions outside any iteration are dropped, like
                // `outputs.last_mut()` on an empty vec.
                if let Some(last) = self.outputs.last_mut() {
                    last.extend(vals);
                }
                self.regs[r(dst)] = Value::Null;
            }
            Op::MathCall {
                dst,
                name,
                argbase,
                argc,
            } => {
                let s = r(argbase);
                let v = match crate::value::math_values(
                    &module.names[name as usize],
                    &self.regs[s..s + argc as usize],
                ) {
                    Ok(v) => v,
                    Err(sf) => self.soft(&sf.msg, sf.default)?,
                };
                let v = self.step(v)?;
                self.regs[r(dst)] = v;
            }
            Op::SSInsert { dst, arr, val } => {
                let v = match self.regs[r(arr)] {
                    Value::Ref(ObjId(id)) => {
                        // The inserted value is stepped (and possibly
                        // corrupted) before the shift.
                        let v = self.regs[r(val)].clone();
                        let v = self.step(v)?;
                        self.heap.ss_insert(id, v);
                        Value::Null
                    }
                    _ => self.soft("bad SSJavaArray intrinsic `insert`", Value::Null)?,
                };
                self.regs[r(dst)] = v;
            }
            Op::SSClear { dst, arr } => {
                let v = match self.regs[r(arr)] {
                    Value::Ref(ObjId(id)) => {
                        self.heap.ss_clear(id);
                        Value::Null
                    }
                    _ => self.soft("bad SSJavaArray intrinsic `clear`", Value::Null)?,
                };
                self.regs[r(dst)] = v;
            }
            Op::SoftNull { dst, msg } => {
                let m = module.msgs[msg as usize].clone();
                let v = self.soft(&m, Value::Null)?;
                self.regs[r(dst)] = v;
            }
            Op::ElHead => {
                let f = &mut self.frames[fi];
                if f.iterations_left == 0 {
                    return Err(OpStop::LoopDone);
                }
                f.iterations_left -= 1;
                self.el = Some(ElCtx {
                    frame: fi,
                    head_pc: pc,
                    regs_len: self.regs.len(),
                    pending_len: self.pending.len(),
                    armed: false,
                });
                if self.checkpointing && fi == 0 {
                    return Err(OpStop::Head);
                }
            }
            Op::ElCond { c } => {
                if !self.regs[r(c)].as_bool().unwrap_or(true) {
                    return Err(OpStop::LoopDone);
                }
            }
            Op::IterStart => {
                self.outputs.push(Vec::new());
                self.iter_start_step = self.steps;
                if let Some(el) = &mut self.el {
                    el.armed = true;
                }
            }
            Op::LoopDone => return Err(OpStop::LoopDone),
        }
        Ok(())
    }

    /// Reads an undefined local via its compile-time fallback.
    fn load_fallback(&mut self, fb: u32, this: Option<usize>, dst: usize) -> Result<(), OpStop> {
        match &self.module.var_fbs[fb as usize] {
            VarFallback::Unbound { msg } => {
                let m = self.module.msgs[*msg as usize].clone();
                let v = self.soft(&m, Value::Null)?;
                self.regs[dst] = v;
            }
            VarFallback::ThisField {
                off,
                miss_msg,
                unbound_msg,
                miss_default,
            } => match this {
                // A field fallback needs a bound `this` — even a
                // static field read goes unbound without one.
                None => {
                    let m = self.module.msgs[*unbound_msg as usize].clone();
                    let v = self.soft(&m, Value::Null)?;
                    self.regs[dst] = v;
                }
                Some(id) => match self.heap.layout_read(id, *off) {
                    Some(v) => self.regs[dst] = v.clone(),
                    // Reachable when `this` is an array (virtual call
                    // on an array reference).
                    None => {
                        let (m, d) = (
                            self.module.msgs[*miss_msg as usize].clone(),
                            miss_default.clone(),
                        );
                        let v = self.soft(&m, d)?;
                        self.regs[dst] = v;
                    }
                },
            },
            VarFallback::StaticRead { slot, unbound_msg } => {
                if this.is_some() {
                    self.load_static(*slot, dst)?;
                } else {
                    let m = self.module.msgs[*unbound_msg as usize].clone();
                    let v = self.soft(&m, Value::Null)?;
                    self.regs[dst] = v;
                }
            }
        }
        Ok(())
    }

    /// Reads a static slot, scheduling its lazy initializer chunk when
    /// uncached.
    fn load_static(&mut self, slot: u32, dst: usize) -> Result<(), OpStop> {
        if let Some(v) = &self.statics[slot as usize] {
            self.regs[dst] = v.clone();
            return Ok(());
        }
        let s = &self.module.statics[slot as usize];
        match (s.init_chunk, &s.default) {
            (Some(ic), _) => {
                // The chunk ends with CacheStatic + Ret into `dst`.
                self.push_frame(ic, None, dst, None, 0, true);
                Ok(())
            }
            (None, Some(d)) => {
                let d = d.clone();
                self.statics[slot as usize] = Some(d.clone());
                self.regs[dst] = d;
                Ok(())
            }
            // Hard error in both modes.
            (None, None) => Err(stop(self.module.msgs[s.err as usize].clone())),
        }
    }

    /// The default for a missing dynamic field read: the first
    /// chain-matching declaration's type default when that match is
    /// static, else null.
    fn field_miss_default(&self, id: usize, name: u32) -> Value {
        match self.heap.obj_class(id) {
            Some(cid) => {
                let ci = &self.module.classes[cid as usize];
                ci.static_defaults
                    .binary_search_by_key(&name, |&(n, _)| n)
                    .ok()
                    .map(|i| ci.static_defaults[i].1.clone())
                    .unwrap_or(Value::Null)
            }
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile;
    use crate::inject::InjectKind;
    use crate::input::ScriptedInput;
    use sjava_syntax::parse;

    /// Runs `src` twice on one VM and demands byte-identical Debug
    /// renderings of the full result (outputs, steps, error log,
    /// injection step, or the error): the first run is a fresh VM, the
    /// second must reset every piece of machine state to match it.
    /// `pinned` is the FNV-64 of that rendering as the tree-walking
    /// interpreter the VM replaced produced it, while both engines agreed
    /// byte for byte; the VM must keep reproducing it.
    fn diff_with(
        src: &str,
        entry: (&str, &str),
        inputs: &ScriptedInput,
        iters: usize,
        opts: &ExecOptions,
        inj: Option<(u64, u64, InjectKind)>,
        pinned: &str,
    ) -> Result<RunResult, RuntimeError> {
        let p = parse(src).expect("parses");
        let module = compile(&p);
        let mut vm = Vm::new(&module, inputs.clone(), opts.clone());
        let mut run = || {
            vm.set_inputs(inputs.clone());
            vm.set_injector(inj.map(|(s, t, k)| Injector::with_kind(s, t, k)));
            vm.run(entry.0, entry.1, iters)
        };
        let fresh = run();
        let reused = run();
        assert_eq!(
            format!("{fresh:?}"),
            format!("{reused:?}"),
            "a reused VM diverged from a fresh one on:\n{src}"
        );
        assert_eq!(
            format!("{:016x}", sjava_lattice::hash_debug(&fresh)),
            pinned,
            "the VM diverged from the pinned trace of {inj:?} on:\n{src}\n{fresh:?}"
        );
        fresh
    }

    fn diff(src: &str, inputs: ScriptedInput, iters: usize, pinned: &str) -> RunResult {
        diff_with(
            src,
            ("A", "main"),
            &inputs,
            iters,
            &ExecOptions::default(),
            None,
            pinned,
        )
        .expect("runs")
    }

    #[test]
    fn event_loop_emits_per_iteration() {
        let r = diff(
            "class A { void main() { SSJAVA: while (true) {
                int x = Device.read();
                Out.emit(x * 2);
            } } }",
            ScriptedInput::new().channel("read", vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            3,
            "81b75d03707d30ad",
        );
        assert_eq!(
            r.outputs(),
            vec![Value::Int(2), Value::Int(4), Value::Int(6)]
        );
    }

    #[test]
    fn fields_persist_across_iterations() {
        let r = diff(
            "class A { int prev; void main() { SSJAVA: while (true) {
                int x = Device.read();
                Out.emit(prev);
                prev = x;
            } } }",
            ScriptedInput::new().channel("read", vec![Value::Int(5), Value::Int(7)]),
            3,
            "14d3b95d809ae18f",
        );
        assert_eq!(
            r.outputs(),
            vec![Value::Int(0), Value::Int(5), Value::Int(7)]
        );
    }

    #[test]
    fn objects_and_methods_work() {
        let r = diff(
            "class A { R rec; void main() { rec = new R(); SSJAVA: while (true) {
                rec.set(Device.read());
                Out.emit(rec.get());
            } } }
             class R { int v; void set(int x) { v = x + 1; } int get() { return v; } }",
            ScriptedInput::new().channel("read", vec![Value::Int(10)]),
            1,
            "a8fd09e837dfb138",
        );
        assert_eq!(r.outputs(), vec![Value::Int(11)]);
    }

    #[test]
    fn arrays_and_for_loops() {
        let r = diff(
            "class A { float[] buf; void main() { buf = new float[4]; SSJAVA: while (true) {
                for (int i = 0; i < 4; i++) { buf[i] = Device.readFloat(); }
                float s = 0.0;
                for (int j = 0; j < 4; j++) { s = s + buf[j]; }
                Out.emit(s);
            } } }",
            ScriptedInput::new().channel(
                "readFloat",
                vec![
                    Value::Float(1.0),
                    Value::Float(2.0),
                    Value::Float(3.0),
                    Value::Float(4.0),
                ],
            ),
            1,
            "8efaed3a46294a09",
        );
        assert_eq!(r.outputs(), vec![Value::Float(10.0)]);
    }

    #[test]
    fn ssjava_insert_shifts_down() {
        let r = diff(
            "class A { int[] h; void main() { h = new int[3]; SSJAVA: while (true) {
                SSJavaArray.insert(h, Device.read());
                Out.emit(h[0]); Out.emit(h[1]); Out.emit(h[2]);
            } } }",
            ScriptedInput::new().channel("read", vec![Value::Int(1), Value::Int(2)]),
            2,
            "78fc92606bc72bc3",
        );
        assert_eq!(
            r.iteration_outputs[0],
            vec![Value::Int(0), Value::Int(0), Value::Int(1)]
        );
        assert_eq!(
            r.iteration_outputs[1],
            vec![Value::Int(0), Value::Int(1), Value::Int(2)]
        );
    }

    #[test]
    fn null_deref_is_ignored_in_crash_avoidance_mode() {
        let r = diff(
            "class A { R rec; void main() { SSJAVA: while (true) {
                Out.emit(rec.v);
            } } }
             class R { int v; }",
            ScriptedInput::new(),
            2,
            "ac8393c9faabd48c",
        );
        // Null field read yields null (logged); program keeps running.
        assert_eq!(r.iteration_outputs.len(), 2);
        assert!(!r.error_log.is_empty());
    }

    #[test]
    fn strict_mode_propagates_errors() {
        let opts = ExecOptions {
            ignore_errors: false,
            ..Default::default()
        };
        let r = diff_with(
            "class A { R rec; void main() { SSJAVA: while (true) { Out.emit(rec.v); } } }
             class R { int v; }",
            ("A", "main"),
            &ScriptedInput::new(),
            1,
            &opts,
            None,
            "1a65ba52879625c2",
        );
        assert!(r.is_err());
    }

    #[test]
    fn division_by_zero_yields_zero_when_ignoring() {
        let r = diff(
            "class A { void main() { SSJAVA: while (true) {
                int x = Device.read();
                Out.emit(100 / x);
            } } }",
            ScriptedInput::new().channel("read", vec![Value::Int(0), Value::Int(4)]),
            2,
            "fb9da77cb3e131b3",
        );
        assert_eq!(r.outputs(), vec![Value::Int(0), Value::Int(25)]);
    }

    #[test]
    fn maxloop_bound_is_enforced() {
        let r = diff(
            "class A { void main() { SSJAVA: while (true) {
                int x = Device.read();
                int n = 0;
                MAXLOOP_5: while (true) { n = n + 1; }
                Out.emit(n);
            } } }",
            ScriptedInput::new(),
            1,
            "71742ed95d936047",
        );
        assert_eq!(r.outputs(), vec![Value::Int(5)]);
    }

    #[test]
    fn inheritance_dispatch() {
        let r = diff(
            "class A { B b; void main() { b = new C(); SSJAVA: while (true) {
                Out.emit(b.f());
            } } }
             class B { int f() { return 1; } }
             class C extends B { int f() { return 2; } }",
            ScriptedInput::new(),
            1,
            "2175eb7de855e2e7",
        );
        assert_eq!(r.outputs(), vec![Value::Int(2)]);
    }

    #[test]
    fn statics_casts_strings_and_math() {
        diff(
            "class A {
                static int counter;
                void main() { SSJAVA: while (true) {
                    counter = counter + 1;
                    A.counter = A.counter + 10;
                    float f = (float) counter;
                    int i = (int) (f * 1.5);
                    Out.emit(\"n=\" + i + \" sqrt=\" + Math.sqrt(f));
                    Out.emit(Math.max(counter, 3));
                } }
             }",
            ScriptedInput::new(),
            3,
            "35de3d79028bb23c",
        );
    }

    #[test]
    fn logic_ops_and_branches() {
        diff(
            "class A { void main() { SSJAVA: while (true) {
                int x = Device.read();
                boolean a = x > 1 && x < 10;
                boolean b = x == 0 || !a;
                if (a) { Out.emit(1); } else { Out.emit(0); }
                while (x > 0) { x = x - 1; }
                Out.emit(b); Out.emit(x);
            } } }",
            ScriptedInput::new().channel("read", vec![Value::Int(5), Value::Int(0)]),
            2,
            "2c10125d76f3ea13",
        );
    }

    #[test]
    fn break_continue_and_nested_loops() {
        diff(
            "class A { void main() { SSJAVA: while (true) {
                int s = 0;
                for (int i = 0; i < 10; i++) {
                    if (i == 3) { continue; }
                    if (i == 7) { break; }
                    s = s + i;
                }
                Out.emit(s);
            } } }",
            ScriptedInput::new(),
            2,
            "21164322eb32f9e9",
        );
    }

    #[test]
    fn soft_error_corners_match() {
        // Unknown method, unknown Math intrinsic, array misuse, length
        // of null, negation of non-number — every §4.4 default path.
        diff(
            "class A { int[] arr; R r; void main() { SSJAVA: while (true) {
                Out.emit(r.nope());
                Out.emit(Math.frobnicate(1.0));
                Out.emit(arr[5]);
                arr = new int[2];
                arr[9] = 1;
                Out.emit(arr.length);
                Out.emit(r.length);
                Out.emit(-\"x\");
            } } }
             class R { }",
            ScriptedInput::new(),
            2,
            "ed2bc72b9038229b",
        );
    }

    #[test]
    fn event_loop_catches_body_errors() {
        // Strict-hard error inside the body: iteration aborts, loop
        // continues (§4.4).
        let r = diff(
            "class A { void main() { SSJAVA: while (true) {
                int x = Device.read();
                int y = C.missing;
                Out.emit(x + y);
            } } }
             class C { }",
            ScriptedInput::new().channel("read", vec![Value::Int(1)]),
            3,
            "5539538af5405009",
        );
        assert_eq!(r.iteration_outputs.len(), 3);
        assert!(r.error_log.iter().any(|e| e.contains("iteration aborted")));
    }

    #[test]
    fn recursion_and_call_arg_truncation() {
        diff(
            "class A { void main() { SSJAVA: while (true) {
                Out.emit(fib(10));
                Out.emit(two(1));
            } }
              int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
              int two(int a, int b) { return a + b; }
             }",
            ScriptedInput::new(),
            1,
            "575aa91751dbaaef",
        );
    }

    #[test]
    fn injection_is_reproducible_both_kinds() {
        let src = "class A { int prev; int[] h; void main() { h = new int[4];
            SSJAVA: while (true) {
                int x = Device.read();
                SSJavaArray.insert(h, x + prev);
                Out.emit(h[0] + h[3] * 2);
                prev = x;
            } } }";
        let inputs = ScriptedInput::new().channel("read", vec![Value::Int(3), Value::Int(4)]);
        let mut pinned = GRID_TRACES.split_whitespace();
        for seed in 0..24u64 {
            for trigger in [1, 2, 5, 9, 17, 33] {
                let kind = if seed % 2 == 0 {
                    InjectKind::Op
                } else {
                    InjectKind::Heap
                };
                let r = diff_with(
                    src,
                    ("A", "main"),
                    &inputs,
                    6,
                    &ExecOptions::default(),
                    Some((seed, trigger, kind)),
                    pinned.next().expect("a pinned trace per run"),
                )
                .expect("runs");
                assert_eq!(r.injected_at, Some(trigger), "seed {seed}");
            }
        }
        assert_eq!(pinned.next(), None, "every pinned trace is checked");
    }

    /// Pinned traces of `injection_is_reproducible_both_kinds`: one row
    /// per seed, one column per trigger.
    const GRID_TRACES: &str = "
        c7446a8b4d14b207 133e691efb44f817 39a880fb9e40e9a5 06a451811efd5493 da16a6d1c4794658 e1d3d56b275f3f09
        c7446a8b4d14b207 afe6835f288b84aa f996e6afde54e18b 0583d1430e09208f 691962f23ad07c3e 689824c8adc1b758
        c7446a8b4d14b207 1c4c7acd35bc8ecf 20dddfbe584efd32 9540cc7ac73ff81d 8171eaa604fc858d 4b2b6b79cda7f400
        c7446a8b4d14b207 afe6835f288b84aa f996e6afde54e18b 0583d1430e09208f 691962f23ad07c3e 689824c8adc1b758
        c7446a8b4d14b207 ef907cc41f4915ef 92265be43dc75b1a 1ebec8d6771f6969 00312a70af942723 1171733bdec1e6f3
        57dd683ec9a260a6 9aef8d569abcee03 4e36ac1b70f04762 100d21f8433ff8b1 17cbce1b4835b6e4 6474aae6ab2580b6
        c7446a8b4d14b207 3b9911c61f2912e4 858202239d2a1519 1db179fb2cb9f5c7 6ce9d605146466fe 554ddce1aecbe406
        c7446a8b4d14b207 afe6835f288b84aa f996e6afde54e18b 0583d1430e09208f 691962f23ad07c3e 689824c8adc1b758
        c7446a8b4d14b207 b8399911bc4bcc21 f49e2a5f616142e5 9c4da7695fa85f3f efe84eed05b0e16a 54563c261a1e280a
        c7446a8b4d14b207 afe6835f288b84aa f996e6afde54e18b 0583d1430e09208f 691962f23ad07c3e 689824c8adc1b758
        c7446a8b4d14b207 3e2ebc633f1687df 8b313d43fd68d0c7 e663fd3d2069116f 7a7c950bb6d38e32 24949b550b0b57cf
        8bcb6465b7cf31dd 1300b329529130cc 94b0210e7380af11 abb98f56b2835abd 968e5eb12a88c7b4 7b631c7aa0fe47f2
        c7446a8b4d14b207 2d26058122e9ccda 71bcd2d141b1133c 3d76c13cfd11068b 73e3095e1aa1dc27 03dfb378fed1062f
        755870a9bed4f059 29621ee93209da78 4061f3ffc7b233e5 be2740742092c071 74010ed6545928a6 468a18a49c092256
        c7446a8b4d14b207 cdc234460e8d3139 484ec58213aa56d4 a9fd31505f7b8507 cdc9e701962a6c88 b2834051d805d8f4
        c7446a8b4d14b207 afe6835f288b84aa f996e6afde54e18b 0583d1430e09208f 691962f23ad07c3e 689824c8adc1b758
        c7446a8b4d14b207 c6f1053db5835324 7ea0cfed31a044eb 46172aa50392054b c7d15aeffd0a373e d9c180a4fa5c835c
        2b6cb8acf7e84251 09a585e2ddab6af0 2287fc043c36c51d 153e1b97856be61a 59109065d2d1b43a 689824c8adc1b758
        c7446a8b4d14b207 dac9debe7f2aa9da d32c8c32b9f8165b 90f2ab799fde0c3f a51d2c78f9c2e233 8547d01fbf7af832
        c7446a8b4d14b207 afe6835f288b84aa f996e6afde54e18b 0583d1430e09208f 691962f23ad07c3e 689824c8adc1b758
        c7446a8b4d14b207 bc76c7c7ba30e49e a2429677d9d2d9fa c4bc2001d05d8b3f 1eb87b23cdc313d3 63f734e37988e9d3
        c7446a8b4d14b207 afe6835f288b84aa f996e6afde54e18b 0583d1430e09208f 691962f23ad07c3e 689824c8adc1b758
        c7446a8b4d14b207 3bba912442676cfb 839bc2b127dca22d ff3f1c8452effedb dc6a950c649c2b8e 213019915c7ec33b
        18f1efa19bbb31a8 64e8416228864789 e69f337d0a7a9564 dbdc02629de5fa30 3f2f2867983a0cdc e6c1102caa1c3033
    ";

    #[test]
    fn injection_changes_then_recovers() {
        let src = "class A { int prev; void main() { SSJAVA: while (true) {
            int x = Device.read();
            Out.emit(prev + x);
            prev = x;
        } } }";
        let inputs = ScriptedInput::new().channel("read", vec![Value::Int(1)]);
        let run = |inj, pinned| {
            diff_with(
                src,
                ("A", "main"),
                &inputs,
                10,
                &ExecOptions::default(),
                inj,
                pinned,
            )
            .expect("runs")
        };
        let golden = run(None, "bf6f346fca75e425");
        let injected = run(Some((99, 7, InjectKind::Op)), "9f6b410c9b6f8ea9");
        assert!(injected.injected_at.is_some());
        assert_ne!(golden.outputs(), injected.outputs());
        // Eventually identical again: the last iterations must match.
        assert_eq!(
            golden.iteration_outputs.last(),
            injected.iteration_outputs.last()
        );
    }

    #[test]
    fn snapshot_resume_equals_full_run() {
        let src = "class A { int acc; int[] h; void main() { h = new int[3];
            SSJAVA: while (true) {
                int x = Device.read();
                acc = acc + x;
                SSJavaArray.insert(h, acc);
                Out.emit(acc + h[0]);
            } } }";
        let p = parse(src).expect("parses");
        let module = compile(&p);
        let inputs = ScriptedInput::new().channel("read", vec![Value::Int(2), Value::Int(9)]);
        let mut vm = Vm::new(&module, inputs.clone(), ExecOptions::default());
        let prep = vm.prepare("A", "main").expect("prepares");
        let snap = vm.snapshot();
        for seed in 0..8u64 {
            let trigger = prep.steps + 1 + seed * 3;
            let mut fresh = Vm::new(&module, inputs.clone(), ExecOptions::default());
            fresh.set_injector(Some(Injector::with_kind(seed, trigger, InjectKind::Heap)));
            let full = fresh.run("A", "main", 5).expect("runs");
            vm.restore(&snap);
            let fast = vm
                .resume(
                    &prep,
                    5,
                    Some(Injector::with_kind(seed, trigger, InjectKind::Heap)),
                )
                .expect("runs");
            assert_eq!(format!("{full:?}"), format!("{fast:?}"), "seed {seed}");
        }
    }

    #[test]
    fn unknown_entry_is_an_error() {
        let r = diff_with(
            "class A { void main() { } }",
            ("A", "nope"),
            &ScriptedInput::new(),
            1,
            &ExecOptions::default(),
            None,
            "c497dc668aa13d81",
        );
        assert!(r.is_err());
        let r = diff_with(
            "class A { void main() { } }",
            ("Nope", "main"),
            &ScriptedInput::new(),
            1,
            &ExecOptions::default(),
            None,
            "62546e27d9c5a769",
        );
        assert!(r.is_err());
    }

    #[test]
    fn plain_method_without_event_loop() {
        let r = diff_with(
            "class A { int main() { int s = 0;
                for (int i = 0; i < 5; i++) { s = s + i; }
                Out.emit(s);
                return s; } }",
            ("A", "main"),
            &ScriptedInput::new(),
            3,
            &ExecOptions::default(),
            None,
            "57a6dfaf7cbeed5e",
        )
        .expect("runs");
        // Emissions outside any iteration are dropped.
        assert!(r.iteration_outputs.is_empty());
    }

    #[test]
    fn field_initializers_and_defaults() {
        diff(
            "class A { int x = 41; R r = new R(); void main() { SSJAVA: while (true) {
                Out.emit(x + 1);
                Out.emit(r.bump());
            } } }
             class R { int n = 5; int bump() { n = n + 1; return n; } }",
            ScriptedInput::new(),
            2,
            "cf799355cd5d1da9",
        );
    }
}
