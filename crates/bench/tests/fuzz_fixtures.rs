//! Auto-minimized near-miss fixtures mined from the fuzz stream.
//!
//! Each entry names a `(seed, case)` pair whose generated program
//! *parses* but fails the checker — a near-miss self-stabilization
//! violation, not syntactic garbage. The test re-generates the case,
//! delta-debugs it down while preserving the exact set of error codes,
//! and pins three renderings of the minimized witness under
//! `tests/golden/fuzz/`:
//!
//! - `<name>.sj`  — the minimized program itself (regenerable from the
//!   seed, so the fixture can never drift from the generator), plus a
//!   header line recording its provenance;
//! - `<name>.txt` — every diagnostic through the rich renderer (caret
//!   underlining, labeled secondary spans, notes, suggestions);
//! - `<name>.json` / `<name>.sarif` — the machine emitters.
//!
//! To regenerate after an intentional diagnostic change:
//!
//! ```text
//! SJAVA_REGEN_GOLDEN=1 cargo test -p sjava-bench --test fuzz_fixtures
//! ```

use std::collections::BTreeSet;

use sjava_bench::fuzz::{gen, minimize};
use sjava_syntax::{emit, SourceFile};

mod common;

/// `(fixture name, stream seed, case index)` — every pair parses and
/// errors; together they cover six diagnostic families.
const FIXTURES: &[(&str, u64, u64)] = &[
    ("near_miss_flow_up", 11, 3),
    ("near_miss_implicit_flow", 11, 10),
    ("near_miss_delegate", 11, 16),
    ("near_miss_call_site", 11, 26),
    ("near_miss_resolve", 11, 30),
    ("near_miss_missing_annot", 11, 34),
];

fn assert_matches_fixture(name: &str, ext: &str, rendered: &str) {
    let path = common::fixture_path(&format!("fuzz/{name}.{ext}"));
    common::assert_matches_fixture(&path, rendered);
}

/// The set of error codes a source produces, or `None` when it does not
/// parse — the invariant the minimizer must preserve.
fn error_codes(src: &str) -> Option<BTreeSet<String>> {
    let report = sjava_core::check_source(src).ok()?;
    let codes: BTreeSet<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == sjava_syntax::diag::Severity::Error)
        .map(|d| format!("{:?}", d.code))
        .collect();
    (!codes.is_empty()).then_some(codes)
}

fn pin(name: &str, seed: u64, case: u64) {
    let raw = gen::case(seed, case);
    let original = error_codes(&raw).unwrap_or_else(|| {
        panic!("{name}: stream case ({seed}, {case}) no longer parses-and-errors")
    });

    // Shrink while the exact error-code set survives: the witness stays
    // a near-miss for the same diagnostic families, just minimal.
    let minimized = minimize::minimize(&raw, &mut |cand| {
        error_codes(cand) == Some(original.clone())
    });
    assert!(minimized.len() <= raw.len());

    let header = format!(
        "// fuzz near-miss: seed={seed} case={case} codes={:?}\n",
        original.iter().collect::<Vec<_>>()
    );
    assert_matches_fixture(name, "sj", &format!("{header}{minimized}"));

    let report = sjava_core::check_source(&minimized).expect("minimized witness parses");
    assert!(!report.is_ok(), "minimized witness must still error");
    let file = SourceFile::new(format!("{name}.sj"), minimized.clone());
    let text: String = report.diagnostics.iter().map(|d| d.render(&file)).collect();
    assert_matches_fixture(name, "txt", &text);
    assert_matches_fixture(name, "json", &emit::to_json(&file, &report.diagnostics));
    assert_matches_fixture(name, "sarif", &emit::to_sarif(&file, &report.diagnostics));
}

#[test]
fn near_miss_flow_up_is_pinned() {
    let (name, seed, case) = FIXTURES[0];
    pin(name, seed, case);
}

#[test]
fn near_miss_implicit_flow_is_pinned() {
    let (name, seed, case) = FIXTURES[1];
    pin(name, seed, case);
}

#[test]
fn near_miss_delegate_is_pinned() {
    let (name, seed, case) = FIXTURES[2];
    pin(name, seed, case);
}

#[test]
fn near_miss_call_site_is_pinned() {
    let (name, seed, case) = FIXTURES[3];
    pin(name, seed, case);
}

#[test]
fn near_miss_resolve_is_pinned() {
    let (name, seed, case) = FIXTURES[4];
    pin(name, seed, case);
}

#[test]
fn near_miss_missing_annot_is_pinned() {
    let (name, seed, case) = FIXTURES[5];
    pin(name, seed, case);
}

#[test]
fn fixture_corpus_is_diverse() {
    // The checked-in corpus must keep covering at least five distinct
    // diagnostic families between its fixtures.
    let mut families = BTreeSet::new();
    for (_, seed, case) in FIXTURES {
        families.extend(error_codes(&gen::case(*seed, *case)).expect("parses and errors"));
    }
    assert!(
        families.len() >= 5,
        "near-miss corpus collapsed to {families:?}"
    );
}
