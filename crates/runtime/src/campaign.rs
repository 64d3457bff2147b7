//! Monte-Carlo and exhaustive fault-injection campaigns (§6.2
//! methodology at scale).
//!
//! A [`Campaign`] describes a grid of injection trials — (heap slot |
//! op step) × seed × trigger — against one program entry point. Running
//! it compiles the program once and takes one golden run on the bytecode
//! VM; every trial is then one task on [`sjava_par`]'s shared cursor.
//! Each worker builds one [`Vm`] over fresh inputs, instantiates it and
//! snapshots the post-instantiation machine state, and replays every
//! trial it claims by restoring that flat-heap snapshot — no re-parse,
//! no re-compile, no re-instantiation per trial.
//!
//! Every trial is timed; the outcome reports the mean measured cost of
//! each trial category in [`CampaignOutcome::cost_model`].

use crate::bytecode::{compile, Module};
use crate::driver::{compare_runs, RecoveryStats};
use crate::inject::{InjectKind, Injector};
use crate::input::InputProvider;
use crate::vm::{ExecOptions, Prepared, RunResult, RuntimeError, Vm, VmSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sjava_syntax::ast::Program;
use std::time::Instant;

/// What one trial injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialKind {
    /// Corrupt the value produced by one VM step.
    Op,
    /// Corrupt a pseudo-randomly chosen heap cell.
    HeapRandom,
    /// Corrupt a specific heap cell (by global lexicographic rank).
    HeapCell(usize),
}

/// One planned injection trial.
#[derive(Debug, Clone, Copy)]
pub struct TrialSpec {
    /// Seed for the injector's value-corruption draws.
    pub seed: u64,
    /// Step at which the injector fires.
    pub trigger: u64,
    /// What gets corrupted.
    pub kind: TrialKind,
}

impl TrialSpec {
    fn injector(&self) -> Injector {
        match self.kind {
            TrialKind::Op => Injector::with_kind(self.seed, self.trigger, InjectKind::Op),
            TrialKind::HeapRandom => Injector::with_kind(self.seed, self.trigger, InjectKind::Heap),
            TrialKind::HeapCell(rank) => Injector::targeted_cell(self.seed, self.trigger, rank),
        }
    }
}

/// How the trial grid is enumerated.
#[derive(Debug, Clone, Copy)]
pub enum Grid {
    /// `trials` seeds: per seed, trigger ~ U\[1, window·golden_steps)
    /// and the kind alternates Op/Heap by seed parity. The derivation is
    /// fixed: the fig 6.1/6.2 histograms and the pinned
    /// `mp3dec_trials.csv` reference depend on it.
    MonteCarlo,
    /// Exhaustive lattice: every live heap cell × `triggers` evenly
    /// spaced trigger steps (targeted-cell injection), plus `seeds` op
    /// trials per trigger.
    Lattice {
        /// Op-injection seeds per trigger step.
        seeds: usize,
        /// Trigger steps, evenly spaced across the inject window.
        triggers: usize,
    },
}

/// A fault-injection campaign over one program entry point.
#[derive(Debug, Clone, Copy)]
pub struct Campaign<'a> {
    /// Checked program to run.
    pub program: &'a Program,
    /// `(class, method)` entry point.
    pub entry: (&'a str, &'a str),
    /// Event-loop iterations per trial.
    pub iterations: usize,
    /// Trial count (Monte-Carlo grids; lattices derive their own).
    pub trials: usize,
    /// Grid shape.
    pub grid: Grid,
    /// Fraction of the golden run's steps eligible as trigger points.
    pub inject_window: f64,
    /// Float comparison tolerance for recovery measurement.
    pub eps: f64,
    /// Worker override (`None` = `SJAVA_THREADS`/auto).
    pub threads: Option<usize>,
}

impl<'a> Campaign<'a> {
    /// A campaign with the defaults used by the paper evaluation:
    /// window 0.8, exact output comparison, auto worker count.
    pub fn new(program: &'a Program, entry: (&'a str, &'a str), iterations: usize) -> Self {
        Campaign {
            program,
            entry,
            iterations,
            trials: 1000,
            grid: Grid::MonteCarlo,
            inject_window: 0.8,
            eps: 0.0,
            threads: None,
        }
    }

    /// Runs the campaign. `make_inputs` builds the (deterministic)
    /// input provider — called once for the golden run and once per
    /// worker; every trial starts from that fresh input state.
    ///
    /// # Errors
    ///
    /// Fails only if the golden run fails (unknown entry point); trial
    /// runs execute in ignore-errors mode and cannot fail.
    pub fn run<I, F>(&self, make_inputs: F) -> Result<CampaignOutcome, RuntimeError>
    where
        I: InputProvider + Clone,
        F: Fn() -> I + Sync,
    {
        let started = Instant::now();
        let module = compile(self.program);
        let mut gvm = Vm::new(&module, make_inputs(), ExecOptions::default());
        let golden = gvm.run(self.entry.0, self.entry.1, self.iterations)?;
        let heap_cells = gvm.heap_cells();
        let prep_steps = gvm.prepare(self.entry.0, self.entry.1)?.steps;
        let specs = self.specs(&golden, heap_cells);

        let trials = sjava_par::run_indexed_init(
            specs.len(),
            self.threads,
            || TrialVm::new(&module, make_inputs(), self.entry),
            |vm, i| vm.trial(self, &specs[i], &golden),
        );
        let cost_model = CostModel::measured(&specs, &trials, prep_steps);

        let mut hist_samples = RecoveryHistogram::new(5, 400);
        let mut hist_iterations = RecoveryHistogram::new(1, 64);
        for t in &trials {
            hist_samples.record(&t.stats, t.stats.recovery_samples as u64);
            hist_iterations.record(&t.stats, t.stats.recovery_iterations as u64);
        }
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        let trials_per_sec = trials.len() as f64 / (elapsed_ns as f64 / 1e9).max(1e-9);
        Ok(CampaignOutcome {
            golden,
            heap_cells,
            trials,
            hist_samples,
            hist_iterations,
            cost_model,
            elapsed_ns,
            trials_per_sec,
        })
    }

    /// Enumerates the trial grid.
    fn specs(&self, golden: &RunResult, heap_cells: usize) -> Vec<TrialSpec> {
        let max_step = ((golden.steps as f64) * self.inject_window).max(2.0) as u64;
        match self.grid {
            Grid::MonteCarlo => (0..self.trials as u64)
                .map(|seed| {
                    // Bit-for-bit the historical per-trial pipeline's
                    // derivation, so campaign histograms stay comparable.
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    let trigger = rng.gen_range(1..max_step);
                    let kind = if seed.is_multiple_of(2) {
                        TrialKind::Op
                    } else {
                        TrialKind::HeapRandom
                    };
                    TrialSpec {
                        seed,
                        trigger,
                        kind,
                    }
                })
                .collect(),
            Grid::Lattice { seeds, triggers } => {
                let triggers = triggers.max(1);
                let step_at = |t: usize| {
                    1 + ((max_step - 2) * t as u64) / triggers.max(2).saturating_sub(1) as u64
                };
                let mut out = Vec::with_capacity(triggers * (heap_cells + seeds));
                for t in 0..triggers {
                    let trigger = step_at(t);
                    for cell in 0..heap_cells {
                        out.push(TrialSpec {
                            seed: (t * heap_cells + cell) as u64,
                            trigger,
                            kind: TrialKind::HeapCell(cell),
                        });
                    }
                    for s in 0..seeds {
                        out.push(TrialSpec {
                            seed: s as u64,
                            trigger,
                            kind: TrialKind::Op,
                        });
                    }
                }
                out
            }
        }
    }
}

/// One worker's machine: a VM instantiated once over fresh inputs, the
/// post-instantiation snapshot its resumed trials restore, and the fresh
/// input state its full-run trials start from. Every trial sees the
/// state a fresh injected run would, so results never depend on which
/// worker claims which trial.
struct TrialVm<'m, I: InputProvider> {
    vm: Vm<'m, I>,
    inputs: I,
    prep: Prepared,
    snap: VmSnapshot<I>,
}

impl<'m, I: InputProvider + Clone> TrialVm<'m, I> {
    fn new(module: &'m Module, inputs: I, entry: (&str, &str)) -> Self {
        let mut vm = Vm::new(module, inputs.clone(), ExecOptions::default());
        let prep = vm
            .prepare(entry.0, entry.1)
            .expect("campaign entry resolved by the golden run");
        let snap = vm.snapshot();
        TrialVm {
            vm,
            inputs,
            prep,
            snap,
        }
    }

    /// Runs one trial of `campaign` against its golden run: restore and
    /// resume, or a full run when the trigger can fire during
    /// instantiation.
    fn trial(&mut self, campaign: &Campaign, spec: &TrialSpec, golden: &RunResult) -> TrialOutcome {
        let t0 = Instant::now();
        let vm = &mut self.vm;
        let run = if spec.trigger > self.prep.steps {
            vm.restore(&self.snap);
            vm.resume(&self.prep, campaign.iterations, Some(spec.injector()))
        } else {
            // A full run re-instantiates, so it must also start from
            // the fresh input state rather than wherever earlier
            // trials left the cursor. The post-prepare snapshot is
            // not that state: field initializers may read inputs.
            vm.set_inputs(self.inputs.clone());
            vm.set_injector(Some(spec.injector()));
            vm.run(campaign.entry.0, campaign.entry.1, campaign.iterations)
        }
        .expect("injected run cannot fail in ignore-errors mode");
        let stats = compare_runs(
            &golden.iteration_outputs,
            &run.iteration_outputs,
            campaign.eps,
        );
        TrialOutcome {
            seed: spec.seed,
            trigger: spec.trigger,
            kind: spec.kind,
            injected_at: run.injected_at,
            stats,
            ns: t0.elapsed().as_nanos() as u64,
        }
    }
}

/// Mean measured nanoseconds per trial category over a campaign's own
/// trials.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel {
    /// `[op-resume, heap-resume, full-run]` mean ns; 0 for a category
    /// with no trials.
    pub ns: [u64; 3],
}

impl CostModel {
    /// Category of a trial: a trigger that can fire during instantiation
    /// forces a full run; otherwise op or heap injection on a restored
    /// snapshot.
    fn category(spec: &TrialSpec, prep_steps: u64) -> usize {
        if spec.trigger <= prep_steps {
            2
        } else if matches!(spec.kind, TrialKind::Op) {
            0
        } else {
            1
        }
    }

    /// Per-category means of `trials`, which pair up with `specs`.
    fn measured(specs: &[TrialSpec], trials: &[TrialOutcome], prep_steps: u64) -> Self {
        let mut sums = [(0u64, 0u64); 3];
        for (spec, trial) in specs.iter().zip(trials) {
            let sum = &mut sums[Self::category(spec, prep_steps)];
            sum.0 += trial.ns;
            sum.1 += 1;
        }
        CostModel {
            ns: sums.map(|(ns, count)| ns.checked_div(count).unwrap_or(0)),
        }
    }
}

/// Result of one trial within a campaign.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// Injector seed.
    pub seed: u64,
    /// Planned trigger step.
    pub trigger: u64,
    /// What was injected.
    pub kind: TrialKind,
    /// Step at which the injector actually fired.
    pub injected_at: Option<u64>,
    /// Recovery measurement vs the golden run.
    pub stats: RecoveryStats,
    /// Measured wall time of this trial in nanoseconds.
    pub ns: u64,
}

/// Everything a campaign produces.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The golden (uninjected) run.
    pub golden: RunResult,
    /// Heap cells after the golden run (the targeted-injection space).
    pub heap_cells: usize,
    /// Per-trial outcomes, in grid order regardless of thread count.
    pub trials: Vec<TrialOutcome>,
    /// Recovery-time histogram in output samples.
    pub hist_samples: RecoveryHistogram,
    /// Recovery-time histogram in iterations.
    pub hist_iterations: RecoveryHistogram,
    /// Mean measured ns per trial, by category.
    pub cost_model: CostModel,
    /// Total campaign wall time.
    pub elapsed_ns: u64,
    /// Throughput over the whole campaign (incl. compile + golden).
    pub trials_per_sec: f64,
}

impl CampaignOutcome {
    /// Trials whose outputs differed from the golden run at all.
    pub fn diverged(&self) -> usize {
        self.trials.iter().filter(|t| t.stats.diverged).count()
    }
}

/// A fixed-width histogram of recovery times streamed from
/// [`RecoveryStats`], with divergence tallies.
#[derive(Debug, Clone)]
pub struct RecoveryHistogram {
    /// Bucket width (in the recorded unit: samples or iterations).
    pub bucket_width: u64,
    /// Counts per bucket; the last bucket absorbs the tail.
    pub buckets: Vec<u64>,
    /// Trials with any divergence.
    pub diverged: u64,
    /// Trials with no observable divergence.
    pub silent: u64,
}

impl RecoveryHistogram {
    /// A histogram with `max / bucket_width + 2` buckets.
    pub fn new(bucket_width: u64, max: u64) -> Self {
        RecoveryHistogram {
            bucket_width: bucket_width.max(1),
            buckets: vec![0; (max / bucket_width.max(1) + 2) as usize],
            diverged: 0,
            silent: 0,
        }
    }

    /// Streams one trial in; `value` is its recovery time in this
    /// histogram's unit.
    pub fn record(&mut self, stats: &RecoveryStats, value: u64) {
        if stats.diverged {
            self.diverged += 1;
            let idx = ((value / self.bucket_width) as usize).min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        } else {
            self.silent += 1;
        }
    }

    /// Emits `bucket_lo,count` CSV lines (diverged trials only).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("bucket_lo,count\n");
        for (i, &count) in self.buckets.iter().enumerate() {
            out.push_str(&format!("{},{}\n", i as u64 * self.bucket_width, count));
        }
        out
    }

    /// Renders an ASCII bar chart of the non-empty buckets.
    pub fn render(&self) -> String {
        let max = self.buckets.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (i, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let lo = i as u64 * self.bucket_width;
            let hi = lo + self.bucket_width - 1;
            let bar = "#".repeat(((count * 60).div_ceil(max)) as usize);
            out.push_str(&format!("{lo:>6}-{hi:<6} {count:>7} {bar}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::ScriptedInput;
    use crate::value::Value;
    use sjava_syntax::parse;

    const SRC: &str = "class A { int prev; void main() { SSJAVA: while (true) {
        int x = Device.read();
        Out.emit(prev + x);
        prev = x;
    } } }";

    fn inputs() -> ScriptedInput {
        ScriptedInput::new().channel("read", vec![Value::Int(1), Value::Int(2)])
    }

    #[test]
    fn monte_carlo_matches_per_trial_fresh_vms() {
        let p = parse(SRC).expect("parses");
        let mut c = Campaign::new(&p, ("A", "main"), 8);
        c.trials = 40;
        let out = c.run(inputs).expect("campaign");
        // Replay each trial on a fresh VM over fresh inputs: same
        // trigger derivation, same stats, same fire step.
        let module = compile(&p);
        let fresh = |injector: Option<Injector>| {
            let mut vm = Vm::new(&module, inputs(), ExecOptions::default());
            vm.set_injector(injector);
            vm.run("A", "main", 8).expect("runs")
        };
        let golden = fresh(None);
        assert_eq!(golden.iteration_outputs, out.golden.iteration_outputs);
        let max_step = ((golden.steps as f64) * c.inject_window).max(2.0) as u64;
        assert_eq!(out.trials.len(), 40);
        for t in &out.trials {
            let mut rng = StdRng::seed_from_u64(t.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            assert_eq!(rng.gen_range(1..max_step), t.trigger);
            let kind = if t.seed.is_multiple_of(2) {
                InjectKind::Op
            } else {
                InjectKind::Heap
            };
            let run = fresh(Some(Injector::with_kind(t.seed, t.trigger, kind)));
            let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 0.0);
            assert_eq!(stats, t.stats, "seed {}", t.seed);
            assert_eq!(run.injected_at, t.injected_at, "seed {}", t.seed);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let p = parse(SRC).expect("parses");
        let mut c = Campaign::new(&p, ("A", "main"), 6);
        c.trials = 60;
        c.threads = Some(1);
        let a = c.run(inputs).expect("campaign");
        c.threads = Some(4);
        let b = c.run(inputs).expect("campaign");
        let strip = |o: &CampaignOutcome| {
            o.trials
                .iter()
                .map(|t| (t.seed, t.trigger, t.injected_at, t.stats.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&a), strip(&b));
        assert_eq!(a.hist_samples.buckets, b.hist_samples.buckets);
        assert_eq!(a.hist_iterations.buckets, b.hist_iterations.buckets);
    }

    #[test]
    fn trials_fan_out_over_the_pool_with_one_vm_per_worker() {
        // Batches of ≥16 trials once kept every campaign under the
        // pool's sequential cutover, so it never left the calling
        // thread, and built a fresh VM (and inputs) per batch.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let p = parse(SRC).expect("parses");
        let mut c = Campaign::new(&p, ("A", "main"), 6);
        c.trials = 2 * sjava_par::SEQUENTIAL_BELOW;
        let made = AtomicUsize::new(0);
        let counted = || {
            made.fetch_add(1, Ordering::Relaxed);
            inputs()
        };

        c.threads = Some(2);
        let before = sjava_par::pooled_fan_outs();
        let pooled = c.run(counted).expect("campaign");
        assert!(
            sjava_par::pooled_fan_outs() > before,
            "trials must reach the pool"
        );
        let calls = made.swap(0, Ordering::Relaxed);
        assert!(
            calls <= 1 + 2,
            "{calls} make_inputs calls: one golden run plus one per worker expected"
        );

        c.threads = None;
        let before = sjava_par::pooled_fan_outs();
        let auto = c.run(counted).expect("campaign");
        let workers = sjava_par::num_threads();
        if workers > 1 {
            assert!(
                sjava_par::pooled_fan_outs() > before,
                "the default campaign must pool on {workers} workers"
            );
        }
        assert!(made.load(Ordering::Relaxed) <= 1 + workers);
        let semantic = |o: &CampaignOutcome| {
            o.trials
                .iter()
                .map(|t| (t.seed, t.trigger, t.injected_at, t.stats.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(semantic(&pooled), semantic(&auto));
    }

    #[test]
    fn cost_model_reports_measured_category_means() {
        let p = parse(SRC).expect("parses");
        let mut c = Campaign::new(&p, ("A", "main"), 8);
        c.trials = 40;
        let out = c.run(inputs).expect("campaign");
        let module = compile(&p);
        let prep_steps = Vm::new(&module, inputs(), ExecOptions::default())
            .prepare("A", "main")
            .expect("prepares")
            .steps;
        for category in 0..3 {
            let ns: Vec<u64> = out
                .trials
                .iter()
                .filter(|t| {
                    let spec = TrialSpec {
                        seed: t.seed,
                        trigger: t.trigger,
                        kind: t.kind,
                    };
                    CostModel::category(&spec, prep_steps) == category
                })
                .map(|t| t.ns)
                .collect();
            let mean = ns.iter().sum::<u64>().checked_div(ns.len() as u64);
            assert_eq!(
                out.cost_model.ns[category],
                mean.unwrap_or(0),
                "category {category}"
            );
        }
        assert!(out.cost_model.ns[0] > 0, "op-resume trials ran");
        assert!(out.cost_model.ns[1] > 0, "heap-resume trials ran");
    }

    #[test]
    fn lattice_covers_cells_and_triggers() {
        let p = parse(
            "class A { int a; int b; void main() { SSJAVA: while (true) {
                int x = Device.read(); a = a + x; b = b + a; Out.emit(a + b);
            } } }",
        )
        .expect("parses");
        let mut c = Campaign::new(&p, ("A", "main"), 5);
        c.grid = Grid::Lattice {
            seeds: 2,
            triggers: 3,
        };
        let out = c
            .run(|| ScriptedInput::new().channel("read", vec![Value::Int(3)]))
            .expect("campaign");
        assert_eq!(out.trials.len(), 3 * (out.heap_cells + 2));
        assert!(out
            .trials
            .iter()
            .any(|t| matches!(t.kind, TrialKind::HeapCell(_))));
        assert!(out.diverged() > 0, "heap corruption must perturb outputs");
    }
}
