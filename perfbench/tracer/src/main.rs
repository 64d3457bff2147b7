//! In-process half of the sjava benchmark; `perfbench/run.py` drives it.
//!
//! ```text
//! perfbench info
//! perfbench corpus --out DIR [--large-seeds A,B,..] [--adversarial] [--apps]
//! perfbench trace --workload W --dir DIR [--files F,..] [--recon F] [--reps N]
//!                 [--base F --steps F,..] [--trials N] [--spans FILE]
//! perfbench campaign-ref --trials N --out FILE
//! ```
//!
//! `trace` replays the `sjava` command pipeline of one workload
//! in-process, calling each layer's public functions in the order the
//! CLI does, and prints the per-layer metrics as one JSON object.

mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use sjava::analysis::callgraph;
use sjava::analysis::shard::ShardInput;
use sjava::analysis::written;
use sjava::apps::{eyetrack, mp3dec, sumobot, windsensor};
use sjava::core::{checker, linear, shared, Lattices};
use sjava::infer::{dense, emit as infer_emit, lattgen, Completer, Metrics, Mode};
use sjava::lattice::CompletionCache;
use sjava::runtime::inject::InjectKind;
use sjava::runtime::{compare_runs, compile, Campaign, ExecOptions, Injector, Vm};
use sjava::syntax::{lexer, pretty, strip, Diagnostics, SourceFile};
use sjava_bench::stressgen::{self, StressConfig};

use trace::{median, process_cpu_ms, Tracer};

/// Iterations per mp3dec run: the `sjava campaign --app=mp3dec` default.
const MP3_ITERS: usize = 8;
/// `sjava campaign` defaults for the inject window and float tolerance.
const WINDOW: f64 = 0.8;
const EPS: f64 = 1e-9;

type MetricMap = BTreeMap<String, f64>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Opts::parse(args.get(1..).unwrap_or_default());
    let result = match args.first().map(String::as_str) {
        Some("info") => {
            println!(
                "{{\"par_threads\":{},\"nproc\":{}}}",
                sjava_par::num_threads(),
                std::thread::available_parallelism().map_or(1, |n| n.get())
            );
            Ok(())
        }
        Some("corpus") => corpus(&opts),
        Some("trace") => run_trace(&opts),
        Some("campaign-ref") => campaign_ref(&opts),
        _ => Err("usage: perfbench info|corpus|trace|campaign-ref [--flag value ..]".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs; bare flags map to an empty value.
struct Opts(BTreeMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Self {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i].trim_start_matches("--").to_string();
            let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
            map.insert(key, value.cloned().unwrap_or_default());
            i += if value.is_some() { 2 } else { 1 };
        }
        Opts(map)
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn list(&self, key: &str) -> Vec<String> {
        self.0
            .get(key)
            .map(|v| {
                v.split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    }

    fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} needs a number")),
        }
    }
}

/// Writes the generated corpus files: `large_<seed>.sj` for each seed
/// (the `large` stress preset with that generator seed),
/// `adversarial.sj`, and `app_<name>.sj` for the four paper apps.
fn corpus(opts: &Opts) -> Result<(), String> {
    let out = PathBuf::from(opts.str("out")?);
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let write = |name: &str, text: &str| {
        std::fs::write(out.join(name), text).map_err(|e| format!("{name}: {e}"))
    };
    for seed in opts.list("large-seeds") {
        let seed: u64 = seed.parse().map_err(|_| "--large-seeds needs numbers")?;
        let cfg = StressConfig {
            seed,
            ..StressConfig::large()
        };
        write(&format!("large_{seed}.sj"), &stressgen::generate(&cfg))?;
    }
    if opts.has("adversarial") {
        write(
            "adversarial.sj",
            &stressgen::generate(&StressConfig::adversarial()),
        )?;
    }
    if opts.has("apps") {
        write("app_windsensor.sj", windsensor::SOURCE)?;
        write("app_eyetrack.sj", eyetrack::SOURCE)?;
        write("app_sumobot.sj", sumobot::SOURCE)?;
        write("app_mp3dec.sj", mp3dec::source())?;
    }
    Ok(())
}

/// Records the campaign reference from the tree-walking interpreter
/// (`sjava_bench::run_trials`), which the VM campaign must reproduce:
/// one `seed,diverged,recovery_samples` row per Monte-Carlo trial.
fn campaign_ref(opts: &Opts) -> Result<(), String> {
    let trials = opts.num("trials", 160)? as usize;
    let out = opts.str("out")?;
    let program = sjava::parse(&mp3dec::source_with(mp3dec::GRANULE, mp3dec::WINDOW))
        .map_err(|d| d.to_string())?;
    let golden = sjava_bench::run_golden(&program, mp3dec::ENTRY, mp3dec::inputs(0), MP3_ITERS);
    let rows = sjava_bench::run_trials(
        &program,
        mp3dec::ENTRY,
        || mp3dec::inputs(0),
        MP3_ITERS,
        &golden,
        trials,
        WINDOW,
        EPS,
    );
    let mut csv = format!(
        "# mp3dec Monte-Carlo reference from the tree-walking interpreter \
         ({trials} trials, {MP3_ITERS} iterations, window {WINDOW}, eps {EPS}).\n\
         # Regenerate: cargo run --release --manifest-path perfbench/tracer/Cargo.toml -- \
         campaign-ref --trials {trials} --out perfbench/ref/mp3dec_trials.csv\n\
         seed,diverged,recovery_samples\n"
    );
    for t in &rows {
        let _ = writeln!(
            csv,
            "{},{},{}",
            t.seed,
            u8::from(t.stats.diverged),
            t.stats.recovery_samples
        );
    }
    std::fs::write(out, csv).map_err(|e| format!("{out}: {e}"))
}

fn run_trace(opts: &Opts) -> Result<(), String> {
    let dir = PathBuf::from(opts.str("dir")?);
    let workload = opts.str("workload")?;
    let reps = opts.num("reps", 15)?.max(1) as usize;
    let mut tr = Tracer::new(true);
    let mut metrics = match workload {
        "check_cold" => trace_check_cold(&mut tr, &dir, opts, reps)?,
        "check_edit" => trace_check_edit(&mut tr, &dir, opts)?,
        "infer" => trace_infer(&mut tr, &dir, opts, reps)?,
        "campaign_mp3dec" => trace_campaign(&mut tr, opts)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    metrics.insert("par.threads".into(), sjava_par::num_threads() as f64);
    if let Ok(path) = opts.str("spans") {
        std::fs::write(path, tr.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_num(*v)))
        .collect();
    println!("{{{}}}", body.join(","));
    Ok(())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// What one replayed command produced, for the cross-checks.
struct CheckOut {
    diagnostics: Diagnostics,
    methods: usize,
}

/// `sjava check <file>` without a cache directory, phase by phase in
/// the order `sjava_core::check_program` runs them.
fn check_pipeline(tr: &mut Tracer, path: &Path) -> Result<CheckOut, String> {
    tr.span("cli.command", |tr| {
        let file = tr.span("cli.io", |_| {
            read(path).map(|text| SourceFile::new(path.display().to_string(), text))
        })?;
        let parsed = tr.span("syntax.parse", |_| sjava::parse(&file.text));
        let mut methods = 0;
        let diagnostics = match parsed {
            Ok(program) => {
                let mut diags = Diagnostics::new();
                let lattices = tr.span("core.lattice_build", |_| {
                    Lattices::build(&program, &mut diags)
                });
                let cg = tr.span("analysis.callgraph", |_| {
                    callgraph::build(&program, &mut diags)
                });
                if let Some(cg) = cg {
                    methods = cg.topo.len();
                    let eviction = tr.span("analysis.eviction", |_| {
                        written::analyze(&program, &cg, &mut diags)
                    });
                    let shard = tr.span("core.flow", |_| {
                        let shard = ShardInput::whole(&program);
                        checker::check_flows(
                            &shard,
                            &lattices,
                            &cg,
                            &eviction.summaries,
                            &mut diags,
                        );
                        shard
                    });
                    tr.span("core.aliasing", |_| {
                        linear::check_aliasing(&shard, &lattices, &cg, &mut diags)
                    });
                    tr.span("core.shared", |_| {
                        shared::check_shared(&shard, &lattices, &cg, &mut diags)
                    });
                    tr.span("analysis.termination", |_| {
                        sjava::analysis::termination::check(&shard, &cg, &mut diags)
                    });
                }
                tr.span("core.sort", |_| diags.sort_stable());
                diags
            }
            Err(diags) => diags,
        };
        let out = tr.span("syntax.render", |_| render_text(&file, &diagnostics));
        tr.span("cli.io", |_| black_box(out));
        Ok(CheckOut {
            diagnostics,
            methods,
        })
    })
}

/// The default `sjava check` text output: rendered diagnostics, then the
/// verdict line.
fn render_text(file: &SourceFile, diagnostics: &Diagnostics) -> String {
    let mut out = String::new();
    for d in diagnostics.iter() {
        out.push_str(&d.render(file));
        out.push('\n');
    }
    let verdict = if diagnostics.has_errors() {
        "NOT verified self-stabilizing ✗"
    } else {
        "self-stabilizing ✓"
    };
    let _ = writeln!(out, "{}: {verdict}", file.name);
    out
}

fn token_count(text: &str) -> usize {
    lexer::lex(text, &mut Diagnostics::new()).len()
}

/// Per-layer `<name>_ms` medians over the traced ops, their sum
/// (`trace.layers_self_ms`), and `trace.overhead_frac`: the median
/// traced op over the median untraced op.
fn record_layers(
    m: &mut MetricMap,
    per_op: &[BTreeMap<&'static str, u64>],
    traced: &mut [f64],
    untraced: &mut [f64],
) {
    let mut names: Vec<&'static str> = per_op.iter().flat_map(|o| o.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    let mut sum = 0.0;
    for name in names {
        let mut v: Vec<f64> = per_op
            .iter()
            .map(|o| o.get(name).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        let med = median(&mut v);
        sum += med;
        m.insert(format!("{name}_ms"), med);
    }
    m.insert("trace.layers_self_ms".into(), sum);
    m.insert(
        "trace.overhead_frac".into(),
        median(traced) / median(untraced),
    );
}

/// Process CPU time over `threads × wall time`.
fn cpu_busy_frac(cpu_ms: f64, wall_ms: f64) -> f64 {
    cpu_ms / (sjava_par::num_threads() as f64 * wall_ms)
}

/// Runs `op` `reps` times traced and `reps` times untraced, interleaved.
/// Records per-layer self-time medians, the traced/untraced ratio, and
/// the process CPU share the pipeline kept busy.
fn reps_traced_untraced(
    tr: &mut Tracer,
    reps: usize,
    m: &mut MetricMap,
    mut op: impl FnMut(&mut Tracer) -> Result<(), String>,
) -> Result<(), String> {
    let mut off = Tracer::new(false);
    let mut per_op = Vec::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let cpu0 = process_cpu_ms();
    let wall0 = Instant::now();
    for _ in 0..reps {
        let mark = tr.mark();
        op(tr)?;
        per_op.push(tr.self_times(mark));
        traced.push(tr.last_root("cli.command").unwrap_or(0) as f64 / 1e6);
        let t = Instant::now();
        op(&mut off)?;
        untraced.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let wall_ms = wall0.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = process_cpu_ms() - cpu0;
    record_layers(m, &per_op, &mut traced, &mut untraced);
    m.insert("par.busy_frac".into(), cpu_busy_frac(cpu_ms, wall_ms));
    Ok(())
}

fn trace_check_cold(
    tr: &mut Tracer,
    dir: &Path,
    opts: &Opts,
    reps: usize,
) -> Result<MetricMap, String> {
    let mut m = MetricMap::new();
    // Corpus pass: counts, and the replica cross-checked against the
    // library's own whole-program check.
    let (mut tokens, mut methods, mut diags, mut mismatches) = (0, 0, 0, 0);
    for name in opts.list("files") {
        let path = dir.join(&name);
        let out = check_pipeline(tr, &path)?;
        let text = read(&path)?;
        tokens += token_count(&text);
        methods += out.methods;
        diags += out.diagnostics.len();
        let reference = match sjava::parse(&text) {
            Ok(p) => sjava::check(&p).diagnostics,
            Err(d) => d,
        };
        if reference.to_string() != out.diagnostics.to_string() {
            eprintln!("perfbench: replica diverged from sjava::check on {name}");
            mismatches += 1;
        }
    }
    m.insert("syntax.tokens".into(), tokens as f64);
    m.insert("analysis.methods".into(), methods as f64);
    m.insert("core.diagnostics".into(), diags as f64);
    m.insert("trace.replica_mismatches".into(), mismatches as f64);

    let recon = dir.join(opts.str("recon")?);
    reps_traced_untraced(tr, reps, &mut m, |tr| {
        check_pipeline(tr, &recon).map(|_| ())
    })?;
    lex_median(tr, &recon, reps, &mut m)?;
    Ok(m)
}

/// `syntax.lex_ms`: `lexer::lex` timed on its own, outside the command
/// pipeline (parsing already includes it, so it is not added again).
fn lex_median(tr: &mut Tracer, path: &Path, reps: usize, m: &mut MetricMap) -> Result<(), String> {
    let text = read(path)?;
    let mark = tr.mark();
    for _ in 0..reps {
        tr.span("syntax.lex", |_| {
            black_box(lexer::lex(&text, &mut Diagnostics::new()));
        });
    }
    let total = tr.self_times(mark).get("syntax.lex").copied().unwrap_or(0);
    m.insert("syntax.lex_ms".into(), total as f64 / 1e6 / reps as f64);
    Ok(())
}

/// Counters from one cached re-check.
#[derive(Default)]
struct CacheCounts {
    hits: usize,
    misses: usize,
    green: usize,
    red: usize,
    rechecked: usize,
}

/// `sjava check <file>` with `SJAVA_CACHE_DIR=<store>`.
fn edit_pipeline(tr: &mut Tracer, path: &Path, store: &Path) -> Result<CacheCounts, String> {
    tr.span("cli.command", |tr| {
        let file = tr.span("cli.io", |_| {
            read(path).map(|text| SourceFile::new(path.display().to_string(), text))
        })?;
        let parsed = tr.span("syntax.parse", |_| sjava::parse(&file.text));
        let mut counts = CacheCounts::default();
        let diagnostics = match parsed {
            Ok(program) => {
                let mut session = tr.span("cache.open", |_| {
                    sjava::cache::IncrementalChecker::with_dir(store)
                });
                let report = tr.span("cache.check", |_| session.check(&program));
                if let Some(c) = report.cache {
                    counts = CacheCounts {
                        hits: c.hits,
                        misses: c.misses,
                        green: c.green,
                        red: c.red,
                        rechecked: session.last_rechecked().len(),
                    };
                }
                report.diagnostics
            }
            Err(diags) => diags,
        };
        let out = tr.span("syntax.render", |_| render_text(&file, &diagnostics));
        tr.span("cli.io", |_| black_box(out));
        Ok(counts)
    })
}

/// Objects and megabytes under an artifact store directory.
fn store_size(dir: &Path) -> (usize, f64) {
    let mut objects = 0;
    let mut bytes = 0u64;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            match entry.metadata() {
                Ok(md) if md.is_dir() => stack.push(entry.path()),
                Ok(md) => {
                    objects += 1;
                    bytes += md.len();
                }
                Err(_) => {}
            }
        }
    }
    (objects, bytes as f64 / 1e6)
}

/// A fresh store under `dir`, warmed by one cached check of `base`.
fn warm_store(dir: &Path, name: &str, base: &Path) -> Result<PathBuf, String> {
    let store = dir.join(name);
    let _ = std::fs::remove_dir_all(&store);
    let program = sjava::parse(&read(base)?).map_err(|d| d.to_string())?;
    sjava::cache::IncrementalChecker::with_dir(&store).check(&program);
    Ok(store)
}

fn trace_check_edit(tr: &mut Tracer, dir: &Path, opts: &Opts) -> Result<MetricMap, String> {
    let mut m = MetricMap::new();
    let base = dir.join(opts.str("base")?);
    let steps: Vec<PathBuf> = opts.list("steps").iter().map(|s| dir.join(s)).collect();
    if steps.is_empty() {
        return Err("--steps is empty".into());
    }
    // Traced and untraced passes each replay the same edit sequence on a
    // store warmed identically, so every pass sees the same cache state.
    let traced_store = warm_store(dir, "trace_store_on", &base)?;
    let mut per_op = Vec::new();
    let mut traced = Vec::new();
    let mut total = CacheCounts::default();
    let (mut tokens, mut methods) = (0, 0);
    let cpu0 = process_cpu_ms();
    let wall0 = Instant::now();
    for step in &steps {
        let mark = tr.mark();
        let c = edit_pipeline(tr, step, &traced_store)?;
        per_op.push(tr.self_times(mark));
        traced.push(tr.last_root("cli.command").unwrap_or(0) as f64 / 1e6);
        total.hits += c.hits;
        total.misses += c.misses;
        total.green += c.green;
        total.red += c.red;
        total.rechecked += c.rechecked;
    }
    let wall_ms = wall0.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = process_cpu_ms() - cpu0;
    let (objects, mb) = store_size(&traced_store);

    let untraced_store = warm_store(dir, "trace_store_off", &base)?;
    let mut off = Tracer::new(false);
    let mut untraced = Vec::new();
    for step in &steps {
        let t = Instant::now();
        edit_pipeline(&mut off, step, &untraced_store)?;
        untraced.push(t.elapsed().as_secs_f64() * 1e3);
    }
    for step in &steps {
        let text = read(step)?;
        tokens += token_count(&text);
        if let Ok(p) = sjava::parse(&text) {
            if let Some(cg) = callgraph::build(&p, &mut Diagnostics::new()) {
                methods += cg.topo.len();
            }
        }
    }
    record_layers(&mut m, &per_op, &mut traced, &mut untraced);
    m.insert("par.busy_frac".into(), cpu_busy_frac(cpu_ms, wall_ms));
    m.insert("cache.hits".into(), total.hits as f64);
    m.insert("cache.misses".into(), total.misses as f64);
    m.insert("cache.green".into(), total.green as f64);
    m.insert("cache.red".into(), total.red as f64);
    m.insert("cache.rechecked".into(), total.rechecked as f64);
    let looked_up = (total.hits + total.misses).max(1);
    m.insert(
        "cache.hit_rate".into(),
        total.hits as f64 / looked_up as f64,
    );
    m.insert("cache.store_objects".into(), objects as f64);
    m.insert("cache.store_mb".into(), mb);
    m.insert("syntax.tokens".into(), tokens as f64);
    m.insert("analysis.methods".into(), methods as f64);
    lex_median(tr, &steps[0], steps.len(), &mut m)?;
    Ok(m)
}

/// What one replayed `sjava infer` produced.
struct InferOut {
    printed: Option<String>,
    locations: usize,
    paths: u128,
    methods: usize,
}

/// `sjava infer <file>`: strip, then the dense engine's phases in the
/// order `sjava_infer::infer_with` runs them, then print.
fn infer_pipeline(tr: &mut Tracer, path: &Path) -> Result<InferOut, String> {
    tr.span("cli.command", |tr| {
        let text = tr.span("cli.io", |_| read(path))?;
        let program = tr
            .span("syntax.parse", |_| sjava::parse(&text))
            .map_err(|d| format!("{}: {d}", path.display()))?;
        let stripped = tr.span("syntax.strip", |_| {
            strip::strip_location_annotations(&program)
        });
        let mut out = InferOut {
            printed: None,
            locations: 0,
            paths: 0,
            methods: 0,
        };
        let mut diags = Diagnostics::new();
        let Some(cg) = tr.span("analysis.callgraph", |_| {
            callgraph::build(&stripped, &mut diags)
        }) else {
            return Ok(out);
        };
        out.methods = cg.topo.len();
        let graphs = tr.span("infer.vfg", |_| dense::build_dense_graphs(&stripped, &cg));
        let d = tr.span("infer.decompose", |_| {
            dense::decompose_dense(&stripped, &cg, &graphs)
        });
        // Lattice generation plus the Table 6.1 metrics computed on its
        // result, which `infer_with` runs between lattgen and emit.
        let generated = tr.span("infer.lattgen", |_| {
            let cache = CompletionCache::new();
            lattgen::generate_with(
                &d,
                Mode::SInfer,
                &stripped,
                &Completer::Cached(&cache),
                true,
            )
            .map(|g| {
                let metrics = Metrics::from_gen(&g);
                (g, metrics)
            })
        });
        let Ok((gen, metrics)) = generated else {
            return Ok(out);
        };
        let annotated = tr.span("infer.emit", |_| {
            infer_emit::annotate(&stripped, &cg, &d, &gen)
        });
        let printed = tr.span("syntax.print", |_| pretty::print_program(&annotated));
        out.locations = metrics.total_locations();
        out.paths = metrics.total_paths();
        tr.span("cli.io", |_| black_box(&printed));
        out.printed = Some(printed);
        Ok(out)
    })
}

fn trace_infer(tr: &mut Tracer, dir: &Path, opts: &Opts, reps: usize) -> Result<MetricMap, String> {
    let mut m = MetricMap::new();
    let (mut tokens, mut methods, mut locations, mut paths, mut mismatches) = (0, 0, 0, 0u128, 0);
    for name in opts.list("files") {
        let path = dir.join(&name);
        let out = infer_pipeline(tr, &path)?;
        let text = read(&path)?;
        tokens += token_count(&text);
        methods += out.methods;
        locations += out.locations;
        paths += out.paths;
        let program = sjava::parse(&text).map_err(|d| d.to_string())?;
        let stripped = strip::strip_location_annotations(&program);
        let reference = sjava::infer_annotations(&stripped, Mode::SInfer)
            .ok()
            .map(|r| pretty::print_program(&r.annotated));
        if reference != out.printed {
            eprintln!("perfbench: replica diverged from sjava::infer_annotations on {name}");
            mismatches += 1;
        }
    }
    m.insert("syntax.tokens".into(), tokens as f64);
    m.insert("analysis.methods".into(), methods as f64);
    m.insert("infer.locations".into(), locations as f64);
    m.insert("infer.paths".into(), paths as f64);
    m.insert("trace.replica_mismatches".into(), mismatches as f64);

    let recon = dir.join(opts.str("recon")?);
    reps_traced_untraced(tr, reps, &mut m, |tr| {
        infer_pipeline(tr, &recon).map(|_| ())
    })?;
    lex_median(tr, &recon, reps, &mut m)?;
    Ok(m)
}

/// Trial category of `sjava_runtime::campaign::CostModel`: trials that
/// fire during instantiation re-run in full, the rest resume from the
/// snapshot and split by injection kind.
fn cost_category(trigger: u64, prep_steps: u64, op: bool) -> usize {
    if trigger <= prep_steps {
        2
    } else if op {
        0
    } else {
        1
    }
}

/// Monte-Carlo trigger and kind for `seed`, derived as the campaign
/// grid (and the historical per-trial pipeline) derive them.
fn mc_spec(seed: u64, golden_steps: u64) -> (u64, bool) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let max_step = ((golden_steps as f64) * WINDOW).max(2.0) as u64;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (rng.gen_range(1..max_step), seed.is_multiple_of(2))
}

/// `sjava campaign --app=mp3dec --trials=N`: parse, `Campaign::run`,
/// render the report and the histogram CSV.
fn campaign_pipeline(
    tr: &mut Tracer,
    trials: usize,
) -> Result<sjava::runtime::CampaignOutcome, String> {
    tr.span("cli.command", |tr| {
        let src = mp3dec::source_with(mp3dec::GRANULE, mp3dec::WINDOW);
        let program = tr
            .span("syntax.parse", |_| sjava::parse(&src))
            .map_err(|d| d.to_string())?;
        let outcome = tr
            .span("runtime.campaign", |_| {
                let mut c = Campaign::new(&program, mp3dec::ENTRY, MP3_ITERS);
                c.trials = trials;
                c.inject_window = WINDOW;
                c.eps = EPS;
                c.run(|| mp3dec::inputs(0))
            })
            .map_err(|e| e.to_string())?;
        let out = tr.span("syntax.render", |_| {
            let mut s = outcome.hist_samples.render();
            s.push_str(&outcome.hist_iterations.render());
            (s, outcome.hist_samples.to_csv())
        });
        tr.span("cli.io", |_| black_box(out));
        Ok(outcome)
    })
}

fn trace_campaign(tr: &mut Tracer, opts: &Opts) -> Result<MetricMap, String> {
    let mut m = MetricMap::new();
    let trials = opts.num("trials", 150)? as usize;

    // Two traced and two untraced campaigns, interleaved: one campaign
    // takes seconds, and host noise between single runs is large.
    let mark = tr.mark();
    let mut per_op = Vec::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut first = None;
    for _ in 0..2 {
        let op_mark = tr.mark();
        let outcome = campaign_pipeline(tr, trials)?;
        per_op.push(tr.self_times(op_mark));
        traced.push(tr.last_root("cli.command").unwrap_or(0) as f64 / 1e6);
        first.get_or_insert(outcome);
        let t = Instant::now();
        campaign_pipeline(&mut Tracer::new(false), trials)?;
        untraced.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let outcome = first.expect("two campaigns ran");
    let campaign_ms = per_op[0].get("runtime.campaign").copied().unwrap_or(0) as f64 / 1e6;
    record_layers(&mut m, &per_op, &mut traced, &mut untraced);

    let threads = sjava_par::num_threads() as f64;
    let trial_ns: u64 = outcome.trials.iter().map(|t| t.ns).sum();
    m.insert(
        "par.busy_frac".into(),
        trial_ns as f64 / 1e6 / (threads * campaign_ms),
    );
    m.insert("runtime.heap_cells".into(), outcome.heap_cells as f64);
    m.insert(
        "runtime.diverged_frac".into(),
        outcome.diverged() as f64 / outcome.trials.len().max(1) as f64,
    );

    // The campaign's building blocks, each called on its own.
    let program = sjava::parse(&mp3dec::source_with(mp3dec::GRANULE, mp3dec::WINDOW))
        .map_err(|d| d.to_string())?;
    let module = tr.span("runtime.compile", |_| compile(&program));
    let opts_exec = ExecOptions::default();
    let mut vm = Vm::new(&module, mp3dec::inputs(0), opts_exec);
    let (class, method) = mp3dec::ENTRY;
    let t = Instant::now();
    let golden = tr
        .span("runtime.golden", |_| vm.run(class, method, MP3_ITERS))
        .map_err(|e| e.to_string())?;
    let golden_s = t.elapsed().as_secs_f64();
    let (prep, snap) = tr
        .span("runtime.prepare", |_| {
            vm.prepare(class, method).map(|p| (p, vm.snapshot()))
        })
        .map_err(|e| e.to_string())?;
    let mut trial_ms = Vec::new();
    let mut err_abs = 0.0;
    let mut err_base = 0.0;
    let model = outcome.cost_model;
    for t in &outcome.trials {
        let op = matches!(t.kind, sjava::runtime::campaign::TrialKind::Op);
        let predicted = model.ns[cost_category(t.trigger, prep.steps, op)] as f64;
        err_abs += (predicted - t.ns as f64).abs();
        err_base += t.ns as f64;
    }
    // Per-trial cost on the snapshot fast path, over the first trials of
    // the same Monte-Carlo grid.
    for seed in 0..(trials.min(48) as u64) {
        let (trigger, op) = mc_spec(seed, golden.steps);
        if trigger <= prep.steps {
            continue;
        }
        let kind = if op { InjectKind::Op } else { InjectKind::Heap };
        let start = Instant::now();
        tr.span("runtime.trial", |_| {
            vm.restore(&snap);
            let run = vm.resume(
                &prep,
                MP3_ITERS,
                Some(Injector::with_kind(seed, trigger, kind)),
            );
            run.map(|r| {
                black_box(compare_runs(
                    &golden.iteration_outputs,
                    &r.iteration_outputs,
                    EPS,
                ))
            })
        })
        .map_err(|e| e.to_string())?;
        trial_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let span_ms = |name: &str| tr.self_times(mark).get(name).copied().unwrap_or(0) as f64 / 1e6;
    m.insert("runtime.compile_ms".into(), span_ms("runtime.compile"));
    m.insert("runtime.golden_ms".into(), span_ms("runtime.golden"));
    m.insert("runtime.prepare_ms".into(), span_ms("runtime.prepare"));
    m.insert(
        "runtime.vm_steps_per_s".into(),
        golden.steps as f64 / golden_s,
    );
    m.insert("runtime.trial_ms_p50".into(), median(&mut trial_ms));
    m.insert("runtime.cost_model_err".into(), err_abs / err_base.max(1.0));
    m.insert("runtime.trials".into(), outcome.trials.len() as f64);
    m.insert(
        "syntax.tokens".into(),
        token_count(&mp3dec::source_with(mp3dec::GRANULE, mp3dec::WINDOW)) as f64,
    );
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        let st = tr.self_times(0);
        let outer = tr.last_root("outer").expect("outer recorded");
        assert_eq!(st["outer"] + st["inner"], outer);
        assert!(st["inner"] >= 3_000_000);
    }

    #[test]
    fn untraced_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.self_times(0).is_empty());
    }
}
