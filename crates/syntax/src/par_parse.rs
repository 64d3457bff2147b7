//! Parallel front-end: splits a source file into top-level compilation
//! units with a brace-matching pre-scan, lexes and parses each unit on
//! the `sjava-par` worker pool, and merges the per-unit ASTs in source
//! order — byte-identical to the sequential front-end.
//!
//! ## Why this is safe
//!
//! The pre-scan mirrors exactly the lexer's trivia and string-literal
//! skipping, so a unit boundary (the byte just after a `}` that closes a
//! top-level brace group) can never fall inside a token. Lexing the
//! units independently with [`crate::lexer::lex_at`] (absolute spans)
//! therefore concatenates to precisely the whole-file token stream, and
//! the recursive-descent parser — which never consumes past the closing
//! `}` of a class declaration — partitions that stream along the same
//! boundaries the pre-scan found.
//!
//! ## Why it is *always* safe
//!
//! Both layers are belt-and-braces conservative:
//!
//! 1. The pre-scan refuses anything it cannot prove it understood —
//!    unbalanced braces, an unterminated string or block comment, a
//!    stray top-level `}`, trailing non-brace text with no unit to
//!    attach to — and returns `None`, sending the caller down the
//!    sequential path.
//! 2. If any unit produces **any** diagnostic (lexical or syntactic),
//!    the parallel result is discarded wholesale and the file is
//!    re-parsed sequentially. Error recovery near a unit's artificial
//!    EOF could otherwise word a diagnostic differently from the
//!    sequential parser; throwing the attempt away makes the observable
//!    diagnostics byte-identical by construction. Malformed input is not
//!    the perf path, so the wasted parallel attempt costs nothing that
//!    matters.
//!
//! On the clean path the merged class list, the single whole-program
//! `resolve_statics` pass, and the (empty) diagnostics are exactly what
//! the sequential front-end computes.

use crate::ast::Program;
use crate::diag::Diagnostics;
use crate::lexer::lex_at;
use std::ops::Range;

/// Splits `src` into top-level compilation units: each unit is a byte
/// range covering one run of leading trivia/annotations/header tokens
/// plus the top-level `{ ... }` group that closes it. Units tile the
/// file (every byte belongs to exactly one, in order). Returns `None`
/// whenever the scan cannot prove the split is token-safe.
pub(crate) fn split_units(src: &str) -> Option<Vec<Range<usize>>> {
    let b = src.as_bytes();
    let mut units = Vec::new();
    let mut unit_start = 0usize;
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < b.len() {
        match b[i] {
            // Line comment: cannot contain a token boundary.
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            // Block comment: skip to `*/`; unterminated ⇒ the lexer
            // will diagnose, so take the sequential path.
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                loop {
                    if i + 1 >= b.len() {
                        return None;
                    }
                    if b[i] == b'*' && b[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            // String literal: braces inside are text, not structure.
            // A newline or EOF before the closing quote is the lexer's
            // "unterminated string literal" — sequential path.
            b'"' => {
                i += 1;
                loop {
                    match b.get(i) {
                        None | Some(b'\n') => return None,
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            // Skip the escaped scalar (multi-byte safe:
                            // continuation bytes are not `"` or `\`).
                            i += 2;
                        }
                        Some(_) => i += 1,
                    }
                }
            }
            b'{' => {
                depth += 1;
                i += 1;
            }
            b'}' => {
                if depth == 0 {
                    return None; // stray close: sequential path diagnoses
                }
                depth -= 1;
                i += 1;
                if depth == 0 {
                    units.push(unit_start..i);
                    unit_start = i;
                }
            }
            _ => i += 1,
        }
    }
    if depth != 0 {
        return None; // unbalanced open braces
    }
    match units.last_mut() {
        // Trailing trivia (or stray brace-free tokens) ride with the
        // final unit so the tiling stays complete.
        Some(last) if unit_start < b.len() => last.end = b.len(),
        None => return None, // no braces at all: nothing to parallelize
        _ => {}
    }
    Some(units)
}

/// Attempts the parallel front-end. `Some(program)` is byte-identical
/// (AST, diagnostics — necessarily none — and downstream rendering) to
/// what the sequential parser would produce; `None` means "use the
/// sequential path". The caller's diagnostics are never touched: the
/// parallel path only succeeds when there is nothing to report.
pub(crate) fn try_parse_parallel(src: &str) -> Option<Program> {
    if sjava_par::num_threads() <= 1 {
        return None;
    }
    // Paper-sized files parse in well under the worker-spawn cost.
    parse_parallel_with(src, sjava_par::num_threads(), sjava_par::SEQUENTIAL_BELOW)
}

/// The parallel front-end with an explicit worker width and unit floor
/// (at least 2), bypassing `SJAVA_THREADS`. This is the
/// differential-testing surface (exported as
/// [`crate::parse_parallel_forced`]): property tests and the fuzz
/// harness force the split-lex-parse path at any width without mutating
/// process-global environment variables, which would race across test
/// threads.
pub(crate) fn parse_parallel_with(src: &str, threads: usize, min_units: usize) -> Option<Program> {
    let units = split_units(src)?;
    if units.len() < min_units {
        return None;
    }
    let parsed: Vec<(Vec<crate::ast::ClassDecl>, Diagnostics)> =
        sjava_par::run_indexed_with(units.len(), threads, |i| {
            let r = units[i].clone();
            let mut unit_diags = Diagnostics::new();
            let tokens = lex_at(&src[r.clone()], r.start as u32, &mut unit_diags);
            let classes = crate::parser::parse_unit(tokens, &mut unit_diags);
            (classes, unit_diags)
        });
    if parsed.iter().any(|(_, d)| !d.is_empty()) {
        return None; // any diagnostic ⇒ sequential re-parse owns the wording
    }
    let mut classes = Vec::new();
    for (unit_classes, _) in parsed {
        classes.extend(unit_classes);
    }
    Some(crate::resolve::resolve_statics(Program::new(classes)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_simple_classes() {
        let src = "class A { int x; }\nclass B { void f() {} }\n";
        let units = split_units(src).expect("splits");
        assert_eq!(units.len(), 2);
        assert_eq!(&src[units[0].clone()], "class A { int x; }");
        // Trailing newline rides with the last unit.
        assert_eq!(units[1].end, src.len());
        // Units tile the file.
        assert_eq!(units[0].end, units[1].start);
        assert_eq!(units[0].start, 0);
    }

    #[test]
    fn braces_in_strings_and_comments_do_not_split() {
        let src = r#"class A { String s = "}{"; /* } */ } // }
class B { }"#;
        let units = split_units(src).expect("splits");
        assert_eq!(units.len(), 2);
        assert!(&src[units[0].clone()].starts_with("class A"));
        // The trailing line comment of unit 0's line rides with unit 1.
        assert!(&src[units[1].clone()].contains("class B"));
    }

    #[test]
    fn refuses_malformed_nesting() {
        assert!(split_units("class A { ").is_none(), "unbalanced open");
        assert!(split_units("} class A { }").is_none(), "stray close");
        assert!(split_units("class A { \"unterminated }").is_none());
        assert!(split_units("class A { } /* open").is_none());
        assert!(split_units("no braces here").is_none());
        assert!(split_units("").is_none());
    }

    #[test]
    fn annotations_ride_with_their_class() {
        let src = "@LATTICE(\"A<B\")\nclass A { }\n@LATTICE(\"C\")\nclass B { }";
        let units = split_units(src).expect("splits");
        assert_eq!(units.len(), 2);
        assert!(src[units[1].clone()].contains("@LATTICE(\"C\")"));
    }

    // One test mutates THREADS_ENV (parallel test threads share the
    // process environment, so the set/remove pairs must not interleave
    // with another env-reading assertion in this crate).
    #[test]
    fn parallel_parse_matches_sequential_and_falls_back_on_errors() {
        // 30 classes clears the unit cutover; force width 4.
        let mut src = String::new();
        for i in 0..30 {
            src.push_str(&format!(
                "@LATTICE(\"H<L\")\nclass C{i} {{ int f{i}; void m{i}() {{ int x = {i}; x = x + 1; }} }}\n"
            ));
        }
        std::env::set_var(sjava_par::THREADS_ENV, "4");
        let par = try_parse_parallel(&src).expect("parallel path taken");
        let mut seq_diags = Diagnostics::new();
        let tokens = crate::lexer::lex(&src, &mut seq_diags);
        let seq = {
            let classes = crate::parser::parse_unit(tokens, &mut seq_diags);
            crate::resolve::resolve_statics(Program::new(classes))
        };
        assert!(seq_diags.is_empty());
        assert_eq!(par, seq, "parallel AST must equal sequential AST");

        // An erroring unit rejects the whole parallel attempt.
        src.push_str("class Broken { int = ; }\n");
        assert!(
            try_parse_parallel(&src).is_none(),
            "erroring unit must reject the parallel path"
        );
        std::env::remove_var(sjava_par::THREADS_ENV);
    }
}
