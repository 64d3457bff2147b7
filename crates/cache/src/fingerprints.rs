//! Content fingerprints for programs, methods, and the call graph.
//!
//! The invariant every cache key must uphold: **equal fingerprint ⇒
//! byte-identical analysis output**. Three layers compose:
//!
//! - [`iface_hash`] digests every class *interface* — name, superclass,
//!   class annotations (including `@LATTICE` declarations), all fields,
//!   and every method's signature (annotations, staticness, return type,
//!   parameters, span). Bodies are excluded. It keys the cached lattice
//!   model. Per-method entries no longer fold it: interface edits are
//!   handled by red-green revalidation of each entry's recorded
//!   dependency facts (`deps`), so a signature edit invalidates
//!   exactly the methods that *read* the changed declaration instead of
//!   the whole program.
//! - [`local_fp`] digests one method's resolved declaration, spans
//!   included. Spans matter because cached
//!   [`sjava_syntax::diag::Diagnostic`]s embed them: a method whose text
//!   moved must be treated as dirty or replayed diagnostics would point
//!   at stale offsets. Bodies are hashed structurally (a direct walk of
//!   the AST), not via `Debug` formatting — the formatter is an order of
//!   magnitude slower on large unrolled methods and fingerprinting runs
//!   on *every* check, cached or not.
//! - [`method_fps`] folds, bottom-up over the call graph, each method's
//!   local fingerprint with `iface_hash` and the fingerprints of its
//!   (sorted) callees — the *coarse* dirty-cone judgment of the previous
//!   invalidation scheme. The cache no longer keys on it; it survives as
//!   the soundness oracle: the property suite asserts the fine-grained
//!   re-check set is always a subset of this coarse dirty set.
//!
//! All hashing is FNV-1a via [`sjava_lattice::fingerprint`]: stable
//! across processes and platforms, no randomness, no clocks.

use sjava_analysis::callgraph::{CallGraph, MethodRef};
use sjava_lattice::{hash_debug, Fnv64};
use sjava_syntax::ast::{Block, Expr, LValue, MethodDecl, Program, Stmt};
use sjava_syntax::span::Span;
use std::collections::BTreeMap;

/// Digest of every class interface in declaration order, folded from the
/// per-class [`sjava_analysis::shard::class_interface_hash`] summaries —
/// the same content addresses the per-method checkers read, so "the
/// interface summaries agree" and "the cache key matches" are one
/// judgment. Keys
/// the cached lattice model and seeds the coarse [`method_fps`] oracle.
pub fn iface_hash(program: &Program) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(program.classes.len());
    for class in &program.classes {
        h.write_u64(sjava_analysis::shard::class_interface_hash(class));
    }
    h.finish()
}

/// Digest of one method reference's resolved declaration: the reference
/// itself, the declaring class it resolves to, and the full `MethodDecl`
/// (annotations, body, spans). Unresolvable references hash the
/// reference alone.
pub fn local_fp(program: &Program, mref: &MethodRef) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&mref.0);
    h.write_str(&mref.1);
    if let Some((decl_class, method)) = program.resolve_method(&mref.0, &mref.1) {
        h.write_str(&decl_class.name);
        h.write_u64(decl_class.annots.trusted as u64);
        hash_method(&mut h, method);
    }
    h.finish()
}

/// Computes the content fingerprint of every reachable method, bottom-up
/// over `cg.topo` (callees first): `fp(m)` mixes `iface`, `local_fp(m)`,
/// and the fingerprints of `m`'s direct callees in sorted order. Because
/// callee fingerprints fold in transitively, "fingerprint has no cache
/// entry" is exactly the dirty-cone test — no separate propagation pass
/// is needed.
pub fn method_fps(program: &Program, cg: &CallGraph, iface: u64) -> BTreeMap<MethodRef, u64> {
    let mut fps: BTreeMap<MethodRef, u64> = BTreeMap::new();
    for mref in &cg.topo {
        let mut h = Fnv64::new();
        h.write_u64(iface);
        h.write_u64(local_fp(program, mref));
        if let Some(cs) = cg.calls.get(mref) {
            h.write_usize(cs.len());
            for c in cs {
                // Topological order guarantees every callee is present.
                h.write_u64(*fps.get(c).unwrap_or(&0));
            }
        }
        fps.insert(mref.clone(), h.finish());
    }
    fps
}

pub(crate) fn span_bits(s: Span) -> u64 {
    ((s.start as u64) << 32) | s.end as u64
}

/// Structural hash of a full method declaration, body included.
fn hash_method(h: &mut Fnv64, m: &MethodDecl) {
    h.write_str(&m.name);
    h.write_u64(m.is_static as u64);
    h.write_u64(hash_debug(&m.annots));
    h.write_u64(hash_debug(&m.ret));
    h.write_u64(hash_debug(&m.params));
    h.write_u64(span_bits(m.span));
    hash_block(h, &m.body);
}

fn hash_block(h: &mut Fnv64, b: &Block) {
    h.write_u64(span_bits(b.span));
    h.write_usize(b.stmts.len());
    for s in &b.stmts {
        hash_stmt(h, s);
    }
}

fn hash_opt_expr(h: &mut Fnv64, e: &Option<Expr>) {
    match e {
        Some(e) => {
            h.write_u64(1);
            hash_expr(h, e);
        }
        None => h.write_u64(0),
    }
}

fn hash_stmt(h: &mut Fnv64, s: &Stmt) {
    match s {
        Stmt::VarDecl {
            annots,
            ty,
            name,
            init,
            span,
        } => {
            h.write_u64(1);
            h.write_u64(hash_debug(annots));
            h.write_u64(hash_debug(ty));
            h.write_str(name);
            hash_opt_expr(h, init);
            h.write_u64(span_bits(*span));
        }
        Stmt::Assign { lhs, rhs, span } => {
            h.write_u64(2);
            hash_lvalue(h, lhs);
            hash_expr(h, rhs);
            h.write_u64(span_bits(*span));
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            span,
        } => {
            h.write_u64(3);
            hash_expr(h, cond);
            hash_block(h, then_blk);
            match else_blk {
                Some(b) => {
                    h.write_u64(1);
                    hash_block(h, b);
                }
                None => h.write_u64(0),
            }
            h.write_u64(span_bits(*span));
        }
        Stmt::While {
            kind,
            cond,
            body,
            span,
        } => {
            h.write_u64(4);
            h.write_u64(hash_debug(kind));
            hash_expr(h, cond);
            hash_block(h, body);
            h.write_u64(span_bits(*span));
        }
        Stmt::For {
            kind,
            init,
            cond,
            update,
            body,
            span,
        } => {
            h.write_u64(5);
            h.write_u64(hash_debug(kind));
            match init {
                Some(s) => {
                    h.write_u64(1);
                    hash_stmt(h, s);
                }
                None => h.write_u64(0),
            }
            hash_opt_expr(h, cond);
            match update {
                Some(s) => {
                    h.write_u64(1);
                    hash_stmt(h, s);
                }
                None => h.write_u64(0),
            }
            hash_block(h, body);
            h.write_u64(span_bits(*span));
        }
        Stmt::Return { value, span } => {
            h.write_u64(6);
            hash_opt_expr(h, value);
            h.write_u64(span_bits(*span));
        }
        Stmt::Break { span } => {
            h.write_u64(7);
            h.write_u64(span_bits(*span));
        }
        Stmt::Continue { span } => {
            h.write_u64(8);
            h.write_u64(span_bits(*span));
        }
        Stmt::ExprStmt { expr, span } => {
            h.write_u64(9);
            hash_expr(h, expr);
            h.write_u64(span_bits(*span));
        }
        Stmt::Block(b) => {
            h.write_u64(10);
            hash_block(h, b);
        }
    }
}

fn hash_lvalue(h: &mut Fnv64, l: &LValue) {
    match l {
        LValue::Var { name, span } => {
            h.write_u64(1);
            h.write_str(name);
            h.write_u64(span_bits(*span));
        }
        LValue::Field { base, field, span } => {
            h.write_u64(2);
            hash_expr(h, base);
            h.write_str(field);
            h.write_u64(span_bits(*span));
        }
        LValue::Index { base, index, span } => {
            h.write_u64(3);
            hash_expr(h, base);
            hash_expr(h, index);
            h.write_u64(span_bits(*span));
        }
        LValue::StaticField { class, field, span } => {
            h.write_u64(4);
            h.write_str(class);
            h.write_str(field);
            h.write_u64(span_bits(*span));
        }
    }
}

fn hash_expr(h: &mut Fnv64, e: &Expr) {
    match e {
        Expr::IntLit { value, span } => {
            h.write_u64(1);
            h.write_u64(*value as u64);
            h.write_u64(span_bits(*span));
        }
        Expr::FloatLit { value, span } => {
            h.write_u64(2);
            h.write_u64(value.to_bits());
            h.write_u64(span_bits(*span));
        }
        Expr::BoolLit { value, span } => {
            h.write_u64(3);
            h.write_u64(*value as u64);
            h.write_u64(span_bits(*span));
        }
        Expr::StrLit { value, span } => {
            h.write_u64(4);
            h.write_str(value);
            h.write_u64(span_bits(*span));
        }
        Expr::Null { span } => {
            h.write_u64(5);
            h.write_u64(span_bits(*span));
        }
        Expr::This { span } => {
            h.write_u64(6);
            h.write_u64(span_bits(*span));
        }
        Expr::Var { name, span } => {
            h.write_u64(7);
            h.write_str(name);
            h.write_u64(span_bits(*span));
        }
        Expr::Field { base, field, span } => {
            h.write_u64(8);
            hash_expr(h, base);
            h.write_str(field);
            h.write_u64(span_bits(*span));
        }
        Expr::StaticField { class, field, span } => {
            h.write_u64(9);
            h.write_str(class);
            h.write_str(field);
            h.write_u64(span_bits(*span));
        }
        Expr::Index { base, index, span } => {
            h.write_u64(10);
            hash_expr(h, base);
            hash_expr(h, index);
            h.write_u64(span_bits(*span));
        }
        Expr::Length { base, span } => {
            h.write_u64(11);
            hash_expr(h, base);
            h.write_u64(span_bits(*span));
        }
        Expr::Call {
            recv,
            class_recv,
            name,
            args,
            span,
        } => {
            h.write_u64(12);
            match recv {
                Some(r) => {
                    h.write_u64(1);
                    hash_expr(h, r);
                }
                None => h.write_u64(0),
            }
            match class_recv {
                Some(c) => {
                    h.write_u64(1);
                    h.write_str(c);
                }
                None => h.write_u64(0),
            }
            h.write_str(name);
            h.write_usize(args.len());
            for a in args {
                hash_expr(h, a);
            }
            h.write_u64(span_bits(*span));
        }
        Expr::New { class, span } => {
            h.write_u64(13);
            h.write_str(class);
            h.write_u64(span_bits(*span));
        }
        Expr::NewArray { elem, len, span } => {
            h.write_u64(14);
            h.write_u64(hash_debug(elem));
            hash_expr(h, len);
            h.write_u64(span_bits(*span));
        }
        Expr::Unary { op, operand, span } => {
            h.write_u64(15);
            h.write_u64(hash_debug(op));
            hash_expr(h, operand);
            h.write_u64(span_bits(*span));
        }
        Expr::Binary { op, lhs, rhs, span } => {
            h.write_u64(16);
            h.write_u64(hash_debug(op));
            hash_expr(h, lhs);
            hash_expr(h, rhs);
            h.write_u64(span_bits(*span));
        }
        Expr::Cast { ty, operand, span } => {
            h.write_u64(17);
            h.write_u64(hash_debug(ty));
            hash_expr(h, operand);
            h.write_u64(span_bits(*span));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_syntax::parse;

    const SRC: &str = "class A {
        void main() { SSJAVA: while (true) { step(); other(); } }
        void step() { helper(); }
        void other() { int x = 1; }
        void helper() { int y = 2; }
     }";

    fn graph(p: &Program) -> CallGraph {
        let mut d = sjava_syntax::diag::Diagnostics::new();
        sjava_analysis::callgraph::build(p, &mut d).expect("cg")
    }

    fn fps(p: &Program) -> BTreeMap<MethodRef, u64> {
        method_fps(p, &graph(p), iface_hash(p))
    }

    #[test]
    fn fingerprints_are_reproducible() {
        let p1 = parse(SRC).expect("parses");
        let p2 = parse(SRC).expect("parses");
        assert_eq!(iface_hash(&p1), iface_hash(&p2));
        assert_eq!(fps(&p1), fps(&p2));
    }

    #[test]
    fn body_edit_dirties_exactly_the_caller_cone() {
        let p1 = parse(SRC).expect("parses");
        // Same shape, helper's body differs (same byte length keeps all
        // spans identical, so only the call cone of helper may change).
        let p2 = parse(&SRC.replace("int y = 2;", "int y = 3;")).expect("parses");
        assert_eq!(iface_hash(&p1), iface_hash(&p2));
        let (fps1, fps2) = (fps(&p1), fps(&p2));
        let m = |n: &str| ("A".to_string(), n.to_string());
        // helper, step (its caller), and main (transitive) are dirty...
        for n in ["helper", "step", "main"] {
            assert_ne!(fps1[&m(n)], fps2[&m(n)], "{n} should be dirty");
        }
        // ...but the unrelated leaf is untouched.
        assert_eq!(fps1[&m("other")], fps2[&m("other")]);
    }

    #[test]
    fn lattice_annotation_edit_invalidates_everything() {
        let base = "@LATTICE(\"LO<HI\") class A { void main() { SSJAVA: while (true) { f(); } } void f() { } }";
        let edited = base.replace("LO<HI", "HI<LO");
        let p1 = parse(base).expect("parses");
        let p2 = parse(&edited).expect("parses");
        assert_ne!(iface_hash(&p1), iface_hash(&p2));
        let (fps1, fps2) = (fps(&p1), fps(&p2));
        for (m, fp) in &fps1 {
            assert_ne!(fp, &fps2[m], "{m:?} should be dirty after a lattice edit");
        }
    }

    #[test]
    fn structural_body_hash_sees_every_token() {
        // Pairs of programs differing in exactly one body token must get
        // different local fingerprints (guards against a walker that
        // forgets a field).
        let variants = [
            "class A { void f() { int x = 1; } }",
            "class A { void f() { int x = 2; } }",
            "class A { void f() { int y = 1; } }",
            "class A { void f() { if (true) { } } }",
            "class A { void f() { if (false) { } } }",
            "class A { void f() { return; } }",
        ];
        let mut seen = std::collections::BTreeSet::new();
        for v in variants {
            let p = parse(v).expect("parses");
            let fp = local_fp(&p, &("A".to_string(), "f".to_string()));
            assert!(seen.insert(fp), "collision for {v}");
        }
    }
}
