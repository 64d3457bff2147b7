//! # sjava-cache
//!
//! Content-addressed incremental layer over the SJava whole-program
//! checker. An [`IncrementalChecker`] session memoizes every per-method
//! analysis result — flow diagnostics, eviction summaries, aliasing
//! diagnostics, shared-location summaries, and termination verdicts —
//! keyed on a stable 64-bit fingerprint of the method's body and its
//! callees' summary hashes (see [`fingerprints`]). A re-check after an
//! edit re-analyzes only the dirtied call-graph cone and replays cached
//! results for everything else, merged in the same topological order as
//! the full pipeline, so the diagnostics are **byte-identical** to a
//! cold [`sjava_core::check_program`] run at any thread count.
//!
//! ## Dependency-tracked invalidation (red-green revalidation)
//!
//! Interface facts — class interface summaries, field `@LOC`
//! declarations, lattice/completion facts, shared-membership probes —
//! are deliberately **not** folded into the entry key. Instead, every
//! fresh per-method computation runs inside a
//! [`sjava_syntax::track::ReadScope`], which records the exact set of
//! interface facts the analyses consulted (as
//! [`sjava_syntax::track::DepKey`]s). The read-set is fingerprinted
//! (`deps` module) and stored inside the entry — in memory and, for
//! store-backed sessions, in the entry's one checksummed store object,
//! after the analysis result. On the next check, an
//! entry whose key matches is **green** (replayed) iff every recorded
//! fact re-fingerprints byte-identically on the new program, and **red**
//! (rechecked) otherwise. An interface edit therefore re-analyzes only
//! the methods that truly read the changed fact — O(true dependents)
//! instead of the previous whole-program `iface_hash` cutoff's
//! O(program).
//!
//! What is never cached: lattice construction is keyed separately on the
//! interface hash; the call graph (every per-method callee set included),
//! the eviction event-loop check, and the shared-location event-loop
//! check are recomputed on every check (they read global state and are
//! cheap relative to per-method analysis). No measured timings are
//! kept.
//!
//! Setting `SJAVA_CACHE_DIR` (see [`CACHE_DIR_ENV`]) backs the session
//! with the concurrent content-addressed [`store::ArtifactStore`]:
//! each per-method result and its read-set publish as one object with an
//! atomic rename,
//! so any number of processes — concurrent `sjava check` runs, parallel
//! CI jobs — can share one store directory. Corrupt or foreign-format
//! objects (and old monolithic `cache.bin` files from format v3 and
//! earlier) degrade to cache misses, never to an error or a stale
//! result. An unwritable
//! cache directory or a malformed environment value warns once on stderr
//! and degrades to an uncached session.
//!
//! ```
//! let program = sjava_syntax::parse(
//!     "class A { void main() { SSJAVA: while (true) { Out.emit(1); } } }",
//! ).expect("parses");
//! let mut session = sjava_cache::IncrementalChecker::new();
//! let cold = session.check(&program);
//! let warm = session.check(&program);
//! assert_eq!(format!("{}", cold.diagnostics), format!("{}", warm.diagnostics));
//! assert_eq!(warm.cache.expect("incremental").misses, 0);
//! ```

#![warn(missing_docs)]

mod deps;
pub mod edit;
pub mod fingerprints;
pub mod store;

use sjava_analysis::callgraph::{self, MethodRef};
use sjava_analysis::shard::ShardInput;
use sjava_analysis::termination;
use sjava_analysis::written::{self, EvictionResult, MethodSummary};
use sjava_core::shared::SharedMember;
use sjava_core::{
    checker, linear, shared, CacheStats, CheckReport, Lattices, ParseFailure, PhaseTimings,
};
use sjava_lattice::{hash_debug, Fnv64};
use sjava_syntax::ast::Program;
use sjava_syntax::diag::{Diagnostic, Diagnostics};
use sjava_syntax::track::{DepKey, ReadScope};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use fingerprints::{iface_hash, local_fp};
pub use store::ArtifactStore;

/// Environment variable naming the on-disk cache directory. When set,
/// [`IncrementalChecker::from_env`] opens the content-addressed artifact
/// store under it and serves cross-process warm hits from it. An
/// unwritable directory warns once on stderr and degrades to an uncached
/// session.
pub const CACHE_DIR_ENV: &str = "SJAVA_CACHE_DIR";

/// Environment variable overriding [`PERSIST_MIN_WEIGHT`]. A malformed
/// value warns once on stderr and falls back to the default rather than
/// being silently swallowed.
pub const PERSIST_MIN_ENV: &str = "SJAVA_CACHE_PERSIST_MIN";

/// Minimum total statement weight of the fingerprinted method set before
/// a store-backed session publishes artifacts after a check.
/// Persisting costs a fixed encode + write per fresh entry; a paper-sized
/// app re-checks from scratch faster than that, so persisting it makes
/// every *warm* check slower than a cold one (the `windsensor`
/// warm_speedup-0.72 regression). Below this weight the publish is
/// skipped — the in-memory session still replays hits, and a future
/// process can re-check the tiny program cheaply anyway.
pub const PERSIST_MIN_WEIGHT: u64 = 256;

/// One-time warning latches for environment misconfiguration (one per
/// concern, so a bad cache dir does not mask a bad threshold).
static WARNED_PERSIST_MIN: AtomicBool = AtomicBool::new(false);
static WARNED_CACHE_DIR: AtomicBool = AtomicBool::new(false);
static WARNED_MAX_BYTES: AtomicBool = AtomicBool::new(false);

/// Parses an environment override as a non-negative decimal integer;
/// `None` means "malformed" (empty is malformed, padding is trimmed).
fn parse_env_u64(raw: &str) -> Option<u64> {
    raw.trim().parse::<u64>().ok()
}

/// The effective persistence threshold: [`PERSIST_MIN_WEIGHT`] unless
/// overridden via [`PERSIST_MIN_ENV`]. `0` persists everything; a
/// malformed value warns once and keeps the default.
fn persist_min_weight() -> u64 {
    match std::env::var(PERSIST_MIN_ENV) {
        Ok(raw) => match parse_env_u64(&raw) {
            Some(v) => v,
            None => {
                if !WARNED_PERSIST_MIN.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "sjava-cache: warning: ignoring malformed {PERSIST_MIN_ENV}={raw:?} \
                         (expected a non-negative integer); using the default \
                         ({PERSIST_MIN_WEIGHT})"
                    );
                }
                PERSIST_MIN_WEIGHT
            }
        },
        Err(_) => PERSIST_MIN_WEIGHT,
    }
}

/// The store byte budget from `SJAVA_CACHE_MAX_BYTES`: `None` when unset
/// (unbounded); a malformed value warns once and leaves the store
/// unbounded.
fn max_bytes_budget() -> Option<u64> {
    match std::env::var(store::MAX_BYTES_ENV) {
        Ok(raw) => match parse_env_u64(&raw) {
            Some(v) => Some(v),
            None => {
                if !WARNED_MAX_BYTES.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "sjava-cache: warning: ignoring malformed {}={raw:?} \
                         (expected a non-negative integer); store stays unbounded",
                        store::MAX_BYTES_ENV
                    );
                }
                None
            }
        },
        Err(_) => None,
    }
}

/// Every cached per-method result, keyed (in the session maps and the
/// artifact store) by the method's content fingerprint.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct MethodEntry {
    /// Eviction read/write summary (`written::summarize`).
    pub summary: MethodSummary,
    /// Flow-down checker diagnostics (`checker::check_method_flows`).
    pub flow: Vec<Diagnostic>,
    /// Aliasing diagnostics (`linear::check_method_aliasing`).
    pub alias: Vec<Diagnostic>,
    /// Whether a shared-location summary was computed for this method
    /// (false when the program has no shared members or the method has
    /// no lattice info — mirrored so replays rebuild the same maps).
    pub shared_present: bool,
    /// Shared members this method definitely clears.
    pub shared_clears: BTreeSet<SharedMember>,
    /// Shared members this method reads.
    pub shared_reads: BTreeSet<SharedMember>,
    /// Termination failure count (`termination::check_method`).
    pub term_failures: usize,
    /// Termination diagnostics, in source order.
    pub term: Vec<Diagnostic>,
    /// The recorded read-set, as `(fact, fingerprint)` pairs evaluated
    /// on the program the entry was computed against. The entry replays
    /// only while every pair re-evaluates identically.
    pub deps: Vec<(DepKey, u64)>,
}

/// The cached lattice model, valid while the interface hash matches.
struct LatticeEntry {
    iface: u64,
    lattices: Lattices,
    diags: Vec<Diagnostic>,
}

/// An incremental checking session.
///
/// Feed successive revisions of a program to [`IncrementalChecker::check`];
/// each call returns a [`CheckReport`] whose diagnostics are byte-identical
/// to a fresh [`sjava_core::check_program`] run, with
/// [`CheckReport::cache`] describing how much was replayed. Entries are
/// content-addressed, so a session can serve any number of programs (and
/// survives edits being reverted — the old fingerprints hit again).
///
/// A store-backed session ([`IncrementalChecker::with_dir`] /
/// [`IncrementalChecker::from_env`]) additionally probes the shared
/// artifact store for every fingerprint it has not seen in memory, so
/// warm hits flow across processes — `sjava check` runs and CI jobs
/// sharing one `SJAVA_CACHE_DIR` replay each other's results.
pub struct IncrementalChecker {
    entries: HashMap<u64, MethodEntry>,
    lattice_cache: Option<LatticeEntry>,
    last_keys: BTreeMap<MethodRef, u64>,
    /// The methods the most recent check actually re-analyzed (the miss
    /// set, in topological order). Observability only — results never
    /// depend on it; tests use it to prove the re-check set is a subset
    /// of the coarse fingerprint-dirty cone.
    last_rechecked: Vec<MethodRef>,
    store: Option<ArtifactStore>,
    persist_min: u64,
}

impl Default for IncrementalChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalChecker {
    /// An empty in-memory session (no disk persistence).
    pub fn new() -> Self {
        IncrementalChecker {
            entries: HashMap::new(),
            lattice_cache: None,
            last_keys: BTreeMap::new(),
            last_rechecked: Vec::new(),
            store: None,
            persist_min: persist_min_weight(),
        }
    }

    /// A session backed by the content-addressed artifact store under
    /// `dir`: fingerprints missing from memory are probed in the store
    /// during each check (lazily, per key — no up-front bulk load), and
    /// fresh results publish back after the check. An unwritable
    /// directory warns once on stderr and degrades to an uncached
    /// session; corrupt or old-format store contents degrade to misses.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let store = match ArtifactStore::open(&dir) {
            Ok(s) => Some(s),
            Err(e) => {
                if !WARNED_CACHE_DIR.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "sjava-cache: warning: cache directory {} is unusable ({e}); \
                         running without a cache",
                        dir.display()
                    );
                }
                None
            }
        };
        IncrementalChecker {
            store,
            ..Self::new()
        }
    }

    /// Overrides the persistence weight threshold for this session (`0`
    /// persists every program). Tests use this instead of mutating
    /// [`PERSIST_MIN_ENV`], which would race across test threads.
    pub fn set_persist_min(&mut self, weight: u64) {
        self.persist_min = weight;
    }

    /// [`IncrementalChecker::with_dir`] when [`CACHE_DIR_ENV`] is set,
    /// otherwise [`IncrementalChecker::new`].
    pub fn from_env() -> Self {
        match std::env::var(CACHE_DIR_ENV) {
            Ok(dir) if !dir.trim().is_empty() => Self::with_dir(dir.trim()),
            _ => Self::new(),
        }
    }

    /// The artifact store backing this session, if any.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// The methods the most recent check re-analyzed (its miss set, in
    /// topological order): the red entries plus the plain misses, i.e.
    /// everything that was *not* replayed. Observability for tests and
    /// tooling — results never depend on it.
    pub fn last_rechecked(&self) -> &[MethodRef] {
        &self.last_rechecked
    }

    /// Number of per-method entries held **in memory** (store objects are
    /// probed lazily and are not counted until replayed or computed).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the session holds no in-memory entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every in-memory entry. Store objects are untouched — they
    /// are content-addressed and remain valid for any future session.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.lattice_cache = None;
        self.last_keys.clear();
        self.last_rechecked.clear();
    }

    /// Parses and checks source text incrementally, charging parse time
    /// to [`PhaseTimings::parse`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseFailure`] when the source does not parse.
    // The Ok variant (`CheckReport`) is no smaller than the Err variant,
    // so boxing `ParseFailure` would not shrink the `Result`.
    #[allow(clippy::result_large_err)]
    pub fn check_source(&mut self, source: &str) -> Result<CheckReport, ParseFailure> {
        let t = Instant::now();
        let parsed = sjava_syntax::parse(source);
        let parse = t.elapsed();
        match parsed {
            Ok(program) => {
                let mut report = self.check(&program);
                report.timings.parse = parse;
                Ok(report)
            }
            Err(diagnostics) => Err(ParseFailure {
                diagnostics,
                timings: PhaseTimings {
                    parse,
                    threads: sjava_par::num_threads(),
                    ..PhaseTimings::default()
                },
            }),
        }
    }

    /// Checks `program`, replaying cached per-method results wherever the
    /// content fingerprint matches (in memory first, then the artifact
    /// store) and re-analyzing only the dirtied call-graph cone.
    /// Diagnostics are byte-identical to [`sjava_core::check_program`] on
    /// the same program.
    pub fn check(&mut self, program: &Program) -> CheckReport {
        // Global-phase diagnostics (lattice, call graph, event-loop
        // checks), merged after the per-method ones.
        let mut global = Diagnostics::new();
        let mut stats = CacheStats::default();
        let mut timings = PhaseTimings {
            threads: sjava_par::num_threads(),
            ..PhaseTimings::default()
        };
        let iface = iface_hash(program);

        // Lattice model, keyed on the interface hash (replaying its
        // diagnostics in build order).
        let t = Instant::now();
        let lattices = match &self.lattice_cache {
            Some(e) if e.iface == iface => {
                for d in &e.diags {
                    global.push(d.clone());
                }
                e.lattices.clone()
            }
            _ => {
                let mut ld = Diagnostics::new();
                let lattices = Lattices::build(program, &mut ld);
                let cached: Vec<Diagnostic> = ld.iter().cloned().collect();
                for d in &cached {
                    global.push(d.clone());
                }
                self.lattice_cache = Some(LatticeEntry {
                    iface,
                    lattices: lattices.clone(),
                    diags: cached,
                });
                lattices
            }
        };
        timings.lattice_build = t.elapsed();

        // Call graph: rebuilt from scratch on every check — walking every
        // body for its callees costs less than any lookup that could
        // replace it.
        let t = Instant::now();
        let cg = callgraph::build(program, &mut global);
        timings.callgraph = t.elapsed();
        let Some(cg) = cg else {
            global.sort_stable();
            return CheckReport {
                diagnostics: global,
                lattices,
                eviction: None,
                termination_failures: 0,
                timings,
                cache: Some(stats),
            };
        };

        // Entry keys and summaries, bottom-up by wave. A method's key
        // folds its own body fingerprint and the *summary hashes* of its
        // direct callees — the eviction and shared-location summary
        // values, NOT the callee bodies. Interface facts are deliberately absent from
        // the key: they live in the entry's recorded read-set, which is
        // revalidated fact-by-fact (red-green) so an interface edit
        // invalidates only the methods that actually read the changed
        // fact. This is the early-cutoff property twice over: flow,
        // aliasing, and termination diagnostics depend only on a method's
        // own body, the interface facts it reads, and its callees'
        // summaries by value.
        let whole = ShardInput::whole(program);
        let t = Instant::now();
        let members = shared::shared_members(program, &lattices);
        // Fact fingerprints are evaluated lazily, memoized across every
        // revalidation in this check.
        let factdb = deps::FactDb::new(program, &lattices, &members);
        let mut keys: BTreeMap<MethodRef, u64> = BTreeMap::new();
        let mut shashes: BTreeMap<MethodRef, u64> = BTreeMap::new();
        let mut summaries: BTreeMap<MethodRef, MethodSummary> = BTreeMap::new();
        let mut shared_clears: BTreeMap<MethodRef, BTreeSet<SharedMember>> = BTreeMap::new();
        let mut shared_reads: BTreeMap<MethodRef, BTreeSet<SharedMember>> = BTreeMap::new();
        // Read-sets of freshly-computed wave results, awaiting the union
        // with the per-method pass read-sets at admission time.
        let mut wave_deps: BTreeMap<MethodRef, Vec<DepKey>> = BTreeMap::new();
        /// How one wave slot resolved against the cache.
        enum Outcome {
            /// In-memory entry, read-set verified green: replay.
            MemGreen,
            /// Store entry, read-set verified green: adopt and replay.
            /// Boxed: an entry is ~200 bytes and this variant is rare
            /// relative to the green/fresh ones sized per wave slot.
            StoreGreen(Box<MethodEntry>),
            /// Computed fresh; `red` distinguishes "had an entry whose
            /// read-set went stale" from a plain miss.
            Fresh { red: bool, deps: Vec<DepKey> },
        }
        for wave in cg.levels() {
            // Waves order callees strictly before callers, so every
            // callee's summary hash is final when its callers key.
            type WaveResult = (
                u64,
                Option<MethodSummary>,
                Option<(BTreeSet<SharedMember>, BTreeSet<SharedMember>)>,
                Outcome,
            );
            let results: Vec<WaveResult> = sjava_par::run_indexed(wave.len(), |i| {
                let mref = &wave[i];
                let mut h = Fnv64::new();
                h.write_u64(local_fp(program, mref));
                if let Some(cs) = cg.calls.get(mref) {
                    h.write_usize(cs.len());
                    for c in cs {
                        h.write_u64(*shashes.get(c).unwrap_or(&0));
                    }
                }
                let key = h.finish();
                // The fresh path, shared by misses and red entries: the
                // whole computation runs inside a recording scope so the
                // exact interface read-set lands in the entry's deps.
                let fresh = || {
                    let scope = ReadScope::begin();
                    // The has-any-shared-members gate is read here, before
                    // the branch it decides — it must be part of every
                    // entry's read-set or a program gaining its first
                    // shared member could replay a gate-skipped result.
                    sjava_syntax::track::record_shared_gate();
                    let summary = written::summarize(&whole, mref, &summaries);
                    let sh = if members.is_empty() {
                        None
                    } else {
                        shared::method_shared_summary(
                            &whole,
                            &lattices,
                            mref,
                            &members,
                            &shared_clears,
                            &shared_reads,
                        )
                    };
                    (summary, sh, scope.finish())
                };
                if let Some(e) = self.entries.get(&key) {
                    // Red-green revalidation: replay only while every
                    // recorded fact fingerprint is byte-unchanged.
                    if factdb.deps_green(&e.deps) {
                        return (
                            key,
                            Some(e.summary.clone()),
                            e.shared_present
                                .then(|| (e.shared_clears.clone(), e.shared_reads.clone())),
                            Outcome::MemGreen,
                        );
                    }
                    let (summary, sh, deps) = fresh();
                    return (key, summary, sh, Outcome::Fresh { red: true, deps });
                }
                // Cross-process warm path: another session (an earlier
                // `sjava check`, a CI job) may have published this
                // fingerprint; one lock-free store read replays it, but
                // only after the read-set stored with it verifies green.
                // A stale entry falls through to a plain miss.
                if let Some(e) = self.store.as_ref().and_then(|s| s.get_entry(key)) {
                    if factdb.deps_green(&e.deps) {
                        let sh = e
                            .shared_present
                            .then(|| (e.shared_clears.clone(), e.shared_reads.clone()));
                        return (
                            key,
                            Some(e.summary.clone()),
                            sh,
                            Outcome::StoreGreen(Box::new(e)),
                        );
                    }
                }
                let (summary, sh, deps) = fresh();
                (key, summary, sh, Outcome::Fresh { red: false, deps })
            });
            for (mref, (key, summary, sh, outcome)) in wave.iter().zip(results) {
                match outcome {
                    Outcome::MemGreen => stats.green += 1,
                    Outcome::StoreGreen(e) => {
                        self.entries.insert(key, *e);
                        stats.green += 1;
                    }
                    Outcome::Fresh { red, deps } => {
                        if red {
                            // The stale entry must go before the miss set
                            // is computed below, so the method re-enters
                            // the per-method passes and is re-admitted
                            // with its new read-set.
                            self.entries.remove(&key);
                            stats.red += 1;
                        }
                        wave_deps.insert(mref.clone(), deps);
                    }
                }
                let mut h = Fnv64::new();
                match summary {
                    Some(s) => {
                        h.write_u64(1);
                        h.write_u64(hash_debug(&s));
                        summaries.insert(mref.clone(), s);
                    }
                    None => h.write_u64(0),
                }
                match sh {
                    Some((c, r)) => {
                        h.write_u64(1);
                        h.write_u64(hash_debug(&c));
                        h.write_u64(hash_debug(&r));
                        shared_clears.insert(mref.clone(), c);
                        shared_reads.insert(mref.clone(), r);
                    }
                    None => h.write_u64(0),
                }
                shashes.insert(mref.clone(), h.finish());
                keys.insert(mref.clone(), key);
            }
        }
        stats.revalidated = stats.green + stats.red;
        stats.invalidations = self
            .last_keys
            .iter()
            .filter(|(m, key)| keys.get(*m).is_some_and(|now| now != *key))
            .count();
        let missing: Vec<usize> = (0..cg.topo.len())
            .filter(|&i| !self.entries.contains_key(&keys[&cg.topo[i]]))
            .collect();
        stats.misses = missing.len();
        stats.hits = cg.topo.len() - missing.len();
        self.last_rechecked = missing.iter().map(|&i| cg.topo[i].clone()).collect();

        // Eviction event-loop check: always recomputed (it reads every
        // summary at once and is cheap relative to per-method analysis).
        let (stale_paths, stale_locals) = written::check_loop(program, &cg, &summaries);
        written::report(&stale_paths, &stale_locals, &mut global);
        timings.eviction = t.elapsed();
        let eviction = EvictionResult {
            summaries,
            stale_paths,
            stale_locals,
        };
        let mut diags = Diagnostics::new();

        // Flow check: fan out over the dirty indices only, then merge
        // cached and fresh buffers in topological order — the same order
        // the full pipeline merges, so output bytes match.
        let t = Instant::now();
        let mut flow_deps: BTreeMap<usize, Vec<DepKey>> = BTreeMap::new();
        let fresh_flow: BTreeMap<usize, Diagnostics> = sjava_par::run_sparse(&missing, |i| {
            let scope = ReadScope::begin();
            let d =
                checker::check_method_flows(&whole, &lattices, &cg.topo[i], &eviction.summaries);
            (d, scope.finish())
        })
        .into_iter()
        .map(|(i, (d, deps))| {
            flow_deps.insert(i, deps);
            (i, d)
        })
        .collect();
        for i in 0..cg.topo.len() {
            match fresh_flow.get(&i) {
                Some(d) => diags.extend(d.clone()),
                None => {
                    for d in &self.entries[&keys[&cg.topo[i]]].flow {
                        diags.push(d.clone());
                    }
                }
            }
        }
        timings.flow_check = t.elapsed();

        // Aliasing: same dirty-cone fan-out and topo-order merge.
        let t = Instant::now();
        let mut alias_deps: BTreeMap<usize, Vec<DepKey>> = BTreeMap::new();
        let fresh_alias: BTreeMap<usize, Diagnostics> = sjava_par::run_sparse(&missing, |i| {
            let scope = ReadScope::begin();
            let d = linear::check_method_aliasing(&whole, &lattices, &cg.topo[i]);
            (d, scope.finish())
        })
        .into_iter()
        .map(|(i, (d, deps))| {
            alias_deps.insert(i, deps);
            (i, d)
        })
        .collect();
        for i in 0..cg.topo.len() {
            match fresh_alias.get(&i) {
                Some(d) => diags.extend(d.clone()),
                None => {
                    for d in &self.entries[&keys[&cg.topo[i]]].alias {
                        diags.push(d.clone());
                    }
                }
            }
        }
        timings.aliasing = t.elapsed();

        // Shared-location event-loop check: the per-method clears/reads
        // summaries were already assembled (replayed or recomputed)
        // alongside the keys; only the global loop walk runs here.
        let t = Instant::now();
        if !members.is_empty() {
            shared::check_shared_loop(
                program,
                &lattices,
                &cg,
                &members,
                &shared_clears,
                &shared_reads,
                &mut diags,
            );
        }
        timings.shared = t.elapsed();

        // Termination: verdicts depend only on the method body; replay or
        // recompute per method, merged in topological order.
        let t = Instant::now();
        let mut termination_failures = 0usize;
        let mut fresh_term: BTreeMap<usize, (usize, Diagnostics)> = BTreeMap::new();
        let mut term_deps: BTreeMap<usize, Vec<DepKey>> = BTreeMap::new();
        for i in 0..cg.topo.len() {
            let mref = &cg.topo[i];
            match self.entries.get(&keys[mref]) {
                Some(e) => {
                    termination_failures += e.term_failures;
                    for d in &e.term {
                        diags.push(d.clone());
                    }
                }
                None => {
                    let scope = ReadScope::begin();
                    let (n, d) = termination::check_method(&whole, mref);
                    term_deps.insert(i, scope.finish());
                    termination_failures += n;
                    diags.extend(d.clone());
                    fresh_term.insert(i, (n, d));
                }
            }
        }
        timings.termination = t.elapsed();

        // Admit the freshly-computed results into the cache, each carrying
        // the union of every read-set its phases recorded (wave
        // summary + shared, flow, aliasing, termination), fingerprinted
        // against *this* program — the admission side of red-green.
        let admit_db = deps::FactDb::new(program, &lattices, &members);
        for &i in &missing {
            let mref = &cg.topo[i];
            let (term_failures, term) = fresh_term
                .remove(&i)
                .map(|(n, d)| (n, d.into_vec()))
                .unwrap_or_default();
            // BTreeSet union: deterministic read-set order regardless of
            // which phase recorded a fact first or on which thread.
            let mut read_set: BTreeSet<DepKey> = BTreeSet::new();
            read_set.extend(wave_deps.remove(mref).unwrap_or_default());
            read_set.extend(flow_deps.remove(&i).unwrap_or_default());
            read_set.extend(alias_deps.remove(&i).unwrap_or_default());
            read_set.extend(term_deps.remove(&i).unwrap_or_default());
            let entry = MethodEntry {
                summary: eviction.summaries.get(mref).cloned().unwrap_or_default(),
                flow: fresh_flow
                    .get(&i)
                    .map(|d| d.iter().cloned().collect())
                    .unwrap_or_default(),
                alias: fresh_alias
                    .get(&i)
                    .map(|d| d.iter().cloned().collect())
                    .unwrap_or_default(),
                shared_present: shared_clears.contains_key(mref),
                shared_clears: shared_clears.get(mref).cloned().unwrap_or_default(),
                shared_reads: shared_reads.get(mref).cloned().unwrap_or_default(),
                term_failures,
                term,
                deps: admit_db.fingerprint(read_set),
            };
            self.entries.insert(keys[mref], entry);
        }
        drop(admit_db);
        self.last_keys = keys.clone();
        if let Some(store) = &self.store {
            // Publication is best-effort: an unwritable store must not
            // fail the check. Tiny programs skip the round-trip entirely —
            // below the weight threshold the encode+write costs more than
            // the re-check it would save, turning warm checks slower than
            // cold ones.
            let weight: u64 = cg
                .topo
                .iter()
                .filter_map(|mref| program.resolve_method(&mref.0, &mref.1))
                .map(|(_, m)| checker::block_weight(&m.body))
                .sum();
            if weight >= self.persist_min {
                for &i in &missing {
                    let key = keys[&cg.topo[i]];
                    let _ = store.put_entry(key, &self.entries[&key]);
                }
                if let Some(max) = max_bytes_budget() {
                    store.evict_to(max);
                }
            }
        }

        diags.extend(global);
        // Same stable total order as `sjava_core::check_program`, so
        // replayed and freshly-computed reports stay byte-identical.
        diags.sort_stable();
        CheckReport {
            diagnostics: diags,
            lattices,
            eviction: Some(eviction),
            termination_failures,
            timings,
            cache: Some(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parse_rejects_malformed_values() {
        // The pure parser behind every env read: valid decimals parse,
        // padding is trimmed, anything else is rejected (not silently
        // zeroed) so the callers can warn and fall back.
        assert_eq!(parse_env_u64("256"), Some(256));
        assert_eq!(parse_env_u64("  0  "), Some(0));
        assert_eq!(parse_env_u64(""), None);
        assert_eq!(parse_env_u64("lots"), None);
        assert_eq!(parse_env_u64("-1"), None);
        assert_eq!(parse_env_u64("4k"), None);
        assert_eq!(parse_env_u64("1.5"), None);
    }

    #[test]
    fn unwritable_cache_dir_degrades_to_uncached_session() {
        // A path that cannot possibly become a directory: a component of
        // it is a regular file. `with_dir` must warn (once) and hand back
        // a working, uncached session instead of failing the check.
        let base = std::env::temp_dir().join("sjava-cache-unwritable");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).expect("mkdir");
        let file = base.join("not-a-dir");
        std::fs::write(&file, b"x").expect("file");
        let mut session = IncrementalChecker::with_dir(file.join("cache"));
        assert!(session.store().is_none(), "store must be degraded away");
        let program = sjava_syntax::parse(
            "class A { void main() { SSJAVA: while (true) { Out.emit(1); } } }",
        )
        .expect("parses");
        let report = session.check(&program);
        assert!(report.is_ok(), "{}", report.diagnostics);
        assert_eq!(
            format!("{}", report.diagnostics),
            format!("{}", sjava_core::check_program(&program).diagnostics),
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn malformed_persist_min_env_falls_back_to_default() {
        // The latch only suppresses the warning, never the fallback. This
        // test owns PERSIST_MIN_ENV (no other test in this crate mutates
        // it), so the mutation cannot race.
        std::env::set_var(PERSIST_MIN_ENV, "not-a-number");
        assert_eq!(persist_min_weight(), PERSIST_MIN_WEIGHT);
        assert!(WARNED_PERSIST_MIN.load(Ordering::Relaxed));
        assert_eq!(persist_min_weight(), PERSIST_MIN_WEIGHT);
        std::env::set_var(PERSIST_MIN_ENV, "512");
        assert_eq!(persist_min_weight(), 512);
        std::env::remove_var(PERSIST_MIN_ENV);
        assert_eq!(persist_min_weight(), PERSIST_MIN_WEIGHT);
    }

    #[test]
    fn malformed_max_bytes_env_leaves_store_unbounded() {
        // This test owns MAX_BYTES_ENV; see above.
        std::env::set_var(store::MAX_BYTES_ENV, "a-lot");
        assert_eq!(max_bytes_budget(), None);
        assert!(WARNED_MAX_BYTES.load(Ordering::Relaxed));
        std::env::set_var(store::MAX_BYTES_ENV, "1048576");
        assert_eq!(max_bytes_budget(), Some(1 << 20));
        std::env::remove_var(store::MAX_BYTES_ENV);
        assert_eq!(max_bytes_budget(), None);
    }
}
