//! Monte-Carlo and exhaustive fault-injection campaigns (§6.2
//! methodology at scale).
//!
//! A [`Campaign`] describes a grid of injection trials — (heap slot |
//! op step) × seed × trigger — against one program entry point. Running
//! it compiles the program once and takes one golden run on the bytecode
//! VM, which checkpoints the whole machine at every head of the entry
//! event loop. Every trial is then one task on [`sjava_par`]'s shared
//! cursor, and each worker keeps one [`Vm`].
//!
//! A trial runs only the part of its run that can differ from the golden
//! one. An injector is inert before its trigger, so the trial restores
//! the last checkpoint before the trigger (or, when the trigger comes
//! before the first head, instantiates afresh on fresh inputs). Once the
//! injector is spent, the trial stops at the first head where its
//! machine state is bitwise the golden run's there
//! ([`TrialOutcome::rejoined_at`]): a deterministic machine in the same
//! state runs the same, so the golden run's remaining outputs are the
//! trial's. Every trial thus reports what one fresh injected run would.
//!
//! Checkpoints cost iterations × machine state, and the flat heap never
//! frees, so a program that allocates in its loop grows that
//! quadratically. The golden run stops capturing once its checkpoints
//! hold [`CHECKPOINT_BUDGET`] bytes. A trial whose trigger lies past the
//! last checkpoint restores that one and runs to the end, as its
//! rejoin checks stop there too; this also bounds the state a trial
//! compares.
//!
//! Every trial is timed; the outcome reports the mean measured cost of
//! each trial category in [`CampaignOutcome::cost_model`].

use crate::bytecode::{compile, Module};
use crate::driver::{compare_runs, RecoveryStats};
use crate::inject::{InjectKind, Injector};
use crate::input::InputProvider;
use crate::vm::{Checkpoints, ExecOptions, RunResult, RuntimeError, Vm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sjava_syntax::ast::Program;
use std::time::Instant;

/// Most bytes of machine state ([`crate::vm`]'s checkpoint size) the
/// golden run keeps in checkpoints: 64 MiB.
pub const CHECKPOINT_BUDGET: usize = 64 << 20;

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
    /// worker. Checkpoints hold input states and are shared by every
    /// worker, hence `I: Sync`.
    ///
    /// # Errors
    ///
    /// Fails only if the golden run fails (unknown entry point); trial
    /// runs execute in ignore-errors mode and cannot fail.
    pub fn run<I, F>(&self, make_inputs: F) -> Result<CampaignOutcome, RuntimeError>
    where
        I: InputProvider + Clone + Sync,
        F: Fn() -> I + Sync,
    {
        self.run_within(make_inputs, CHECKPOINT_BUDGET)
    }

    /// [`Campaign::run`] with `budget` bytes of checkpoints.
    fn run_within<I, F>(
        &self,
        make_inputs: F,
        budget: usize,
    ) -> Result<CampaignOutcome, RuntimeError>
    where
        I: InputProvider + Clone + Sync,
        F: Fn() -> I + Sync,
    {
        let started = Instant::now();
        let module = compile(self.program);
        let mut gvm = Vm::new(&module, make_inputs(), ExecOptions::default());
        let (golden, checkpoints) =
            gvm.run_checkpointed(self.entry.0, self.entry.1, self.iterations, budget)?;
        let heap_cells = gvm.heap_cells();
        let specs = self.specs(&golden, heap_cells);

        let trials = sjava_par::run_indexed_init(
            specs.len(),
            self.threads,
            || TrialVm::new(&module, make_inputs()),
            |vm, i| vm.trial(self, &specs[i], &golden, &checkpoints),
        );
        let first_head = checkpoints.heads.first().map_or(u64::MAX, |h| h.steps);
        let cost_model = CostModel::measured(&specs, &trials, first_head);

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

/// One worker's machine, and the fresh input state its full-run
/// trials start from. Every trial restores or rebuilds all the machine
/// state it runs on, so results never depend on which worker claims
/// which trial.
struct TrialVm<'m, I: InputProvider> {
    vm: Vm<'m, I>,
    inputs: I,
}

impl<'m, I: InputProvider + Clone> TrialVm<'m, I> {
    fn new(module: &'m Module, inputs: I) -> Self {
        TrialVm {
            vm: Vm::new(module, inputs.clone(), ExecOptions::default()),
            inputs,
        }
    }

    /// Runs one trial of `campaign` against its golden run: from the
    /// last checkpoint before the trigger, or in full when the trigger
    /// can fire before the first head, until the run ends or rejoins
    /// the golden run.
    fn trial(
        &mut self,
        campaign: &Campaign,
        spec: &TrialSpec,
        golden: &RunResult,
        checkpoints: &Checkpoints<I>,
    ) -> TrialOutcome {
        let t0 = Instant::now();
        let vm = &mut self.vm;
        vm.set_injector(Some(spec.injector()));
        let heads = &checkpoints.heads;
        match heads
            .partition_point(|h| h.steps < spec.trigger)
            .checked_sub(1)
        {
            Some(k) => vm.restore_checkpoint(&heads[k], golden),
            None => {
                // Instantiation may read inputs, so a full run starts
                // from the fresh input state, not wherever earlier
                // trials left the cursor.
                vm.set_inputs(self.inputs.clone());
                vm.start_checkpointed(campaign.entry.0, campaign.entry.1, campaign.iterations)
                    .expect("campaign entry resolved by the golden run");
            }
        }
        let mut rejoined_at = None;
        while rejoined_at.is_none()
            && vm
                .dispatch()
                .expect("injected run cannot fail in ignore-errors mode")
        {
            rejoined_at = vm.rejoined(checkpoints);
        }
        let rest = rejoined_at.map_or(&[][..], |k| &golden.iteration_outputs[k..]);
        let (outputs, injected_at) = vm.finish_trial(rest);
        let stats = compare_runs(&golden.iteration_outputs, &outputs, campaign.eps);
        TrialOutcome {
            seed: spec.seed,
            trigger: spec.trigger,
            kind: spec.kind,
            injected_at,
            stats,
            rejoined_at,
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
    /// Category of a trial: a trigger at or before the first head's
    /// step count (`first_head`) forces a full run; otherwise op or heap
    /// injection from a restored checkpoint.
    fn category(spec: &TrialSpec, first_head: u64) -> usize {
        if spec.trigger <= first_head {
            2
        } else if matches!(spec.kind, TrialKind::Op) {
            0
        } else {
            1
        }
    }

    /// Per-category means of `trials`, which pair up with `specs`.
    fn measured(specs: &[TrialSpec], trials: &[TrialOutcome], first_head: u64) -> Self {
        let mut sums = [(0u64, 0u64); 3];
        for (spec, trial) in specs.iter().zip(trials) {
            let sum = &mut sums[Self::category(spec, first_head)];
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
    /// The iteration at whose head the trial's machine state was bitwise
    /// the golden run's (the state-level recovery witness), or `None`
    /// if it never was.
    pub rejoined_at: Option<usize>,
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

    use crate::rejoin_probes::{probe_inputs, probes};

    #[test]
    fn monte_carlo_matches_per_trial_fresh_vms() {
        // Replay each trial on a fresh VM over fresh inputs: same
        // trigger derivation, same stats, same fire step. Beside `SRC`,
        // each rejoin probe keeps one part of the state across
        // iterations; a trial that stopped where that part still
        // differs would report the golden run's outputs, not its own.
        let cases = std::iter::once(("prev", SRC, inputs as fn() -> ScriptedInput, 8)).chain(
            probes().map(|(name, src)| (name, src, probe_inputs as fn() -> ScriptedInput, 10)),
        );
        for (name, src, inputs, iterations) in cases {
            let p = parse(src).expect("parses");
            let module = compile(&p);
            let fresh = |injector: Option<Injector>| {
                let mut vm = Vm::new(&module, inputs(), ExecOptions::default());
                vm.set_injector(injector);
                vm.run("A", "main", iterations).expect("runs")
            };
            let golden = fresh(None);
            let heap_cells = {
                let mut vm = Vm::new(&module, inputs(), ExecOptions::default());
                vm.run("A", "main", iterations).expect("runs");
                vm.heap_cells()
            };
            let max_step = ((golden.steps as f64) * 0.8).max(2.0) as u64;
            let grids = [
                Grid::MonteCarlo,
                Grid::Lattice {
                    seeds: 3,
                    triggers: 8,
                },
            ];
            for grid in grids {
                let mut c = Campaign::new(&p, ("A", "main"), iterations);
                c.grid = grid;
                c.trials = 160;
                let out = c.run(inputs).expect("campaign");
                // Every planned trial is reported, once.
                let planned = match grid {
                    Grid::MonteCarlo => c.trials,
                    Grid::Lattice { seeds, triggers } => triggers * (heap_cells + seeds),
                };
                assert_eq!(out.heap_cells, heap_cells, "{name}");
                assert_eq!(out.trials.len(), planned, "{name} {grid:?}");
                // Debug renderings, so NaN outputs compare equal.
                assert_eq!(
                    format!("{:?}", golden.iteration_outputs),
                    format!("{:?}", out.golden.iteration_outputs)
                );
                for t in &out.trials {
                    if let Grid::MonteCarlo = grid {
                        let mut rng =
                            StdRng::seed_from_u64(t.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                        assert_eq!(rng.gen_range(1..max_step), t.trigger);
                        let op = matches!(t.kind, TrialKind::Op);
                        assert_eq!(op, t.seed.is_multiple_of(2), "{name} seed {}", t.seed);
                    }
                    let spec = TrialSpec {
                        seed: t.seed,
                        trigger: t.trigger,
                        kind: t.kind,
                    };
                    let run = fresh(Some(spec.injector()));
                    let stats =
                        compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 0.0);
                    assert_eq!(stats, t.stats, "{name} {grid:?} {t:?}");
                    assert_eq!(run.injected_at, t.injected_at, "{name} {grid:?} {t:?}");
                }
                // Every program rejoins somewhere; the NaN probe only
                // because its state compares by bits.
                if let Grid::MonteCarlo = grid {
                    assert!(
                        out.trials.iter().any(|t| t.rejoined_at.is_some()),
                        "{name}: no trial rejoined the golden run"
                    );
                }
            }
        }
    }

    #[test]
    fn checkpoint_budget_bounds_captured_heads_not_results() {
        // The alloc probe's heap grows every iteration, so its
        // checkpoints grow quadratically. Past the budget the golden run
        // captures no more heads, and trials beyond them run from the
        // last one to the end: same results, fewer rejoin points.
        let (_, src) = probes()
            .find(|(n, _)| n.starts_with("alloc"))
            .expect("alloc probe");
        let p = parse(src).expect("parses");
        let module = compile(&p);
        let heads = |budget| {
            let mut vm = Vm::new(&module, probe_inputs(), ExecOptions::default());
            let (_, cps) = vm.run_checkpointed("A", "main", 40, budget).expect("runs");
            cps.heads.iter().map(|h| h.bytes()).collect::<Vec<_>>()
        };
        let all = heads(CHECKPOINT_BUDGET);
        assert_eq!(all.len(), 40, "one checkpoint per head");
        assert!(
            all.windows(2).all(|w| w[0] < w[1]),
            "the heap grows: {all:?}"
        );
        let budget = all[..10].iter().sum::<usize>();
        assert_eq!(heads(budget).len(), 10);
        assert_eq!(heads(0).len(), 0);

        let semantic = |o: &CampaignOutcome| {
            o.trials
                .iter()
                .map(|t| (t.seed, t.trigger, t.kind, t.injected_at, t.stats.clone()))
                .collect::<Vec<_>>()
        };
        for grid in [
            Grid::MonteCarlo,
            Grid::Lattice {
                seeds: 2,
                triggers: 6,
            },
        ] {
            let mut c = Campaign::new(&p, ("A", "main"), 40);
            c.grid = grid;
            c.trials = 60;
            let full = c.run(probe_inputs).expect("campaign");
            for cut in [0, budget] {
                let capped = c.run_within(probe_inputs, cut).expect("campaign");
                assert_eq!(semantic(&capped), semantic(&full), "{grid:?} budget {cut}");
                let captured = heads(cut).len();
                assert!(
                    capped
                        .trials
                        .iter()
                        .all(|t| t.rejoined_at.is_none_or(|k| k < captured)),
                    "{grid:?} budget {cut}: rejoined past the last checkpoint"
                );
            }
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
        let (_, checkpoints) = Vm::new(&module, inputs(), ExecOptions::default())
            .run_checkpointed("A", "main", 8, CHECKPOINT_BUDGET)
            .expect("runs");
        let first_head = checkpoints.heads[0].steps;
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
                    CostModel::category(&spec, first_head) == category
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
