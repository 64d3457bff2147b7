//! Fact fingerprints and the read-set wire codec behind red-green
//! revalidation.
//!
//! The recording layer (`sjava_syntax::track`) captures *which* facts a
//! per-method check read as a list of [`DepKey`]s; this module answers
//! *what those facts were worth* on a concrete program. [`FactDb`]
//! evaluates one fingerprint per key — once at admission time against
//! the program the check actually ran on, and again at revalidation time
//! against the edited program. An entry is **green** (replayable without
//! rechecking) iff every recorded `(key, fingerprint)` pair re-evaluates
//! to the same fingerprint; any mismatch makes it **red**.
//!
//! Both sides use the same evaluation function, so the two can never
//! disagree about what a fact's fingerprint covers. The invariant each
//! per-key fingerprint must uphold mirrors the cache-key invariant:
//! *equal fingerprint ⇒ the fact reads back byte-identically*. Every
//! fingerprint is tagged (present/miss) so "the class disappeared" and
//! "the class is empty" never collide.

use crate::fingerprints::span_bits;
use sjava_core::model::{effective_method_annots, Lattices};
use sjava_core::shared::SharedMember;
use sjava_lattice::{hash_debug, Fnv64};
use sjava_syntax::ast::Program;
use sjava_syntax::track::DepKey;
use sjava_syntax::wire::{self, Reader};
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;

/// Evaluates fact fingerprints against one program snapshot, memoizing
/// per key — a wave of revalidations touching the same interface facts
/// hashes each fact once.
pub(crate) struct FactDb<'a> {
    program: &'a Program,
    lattices: &'a Lattices,
    members: &'a BTreeSet<SharedMember>,
    memo: Mutex<HashMap<DepKey, u64>>,
}

impl<'a> FactDb<'a> {
    /// A fact database over one `(program, lattice model, shared
    /// members)` snapshot.
    pub(crate) fn new(
        program: &'a Program,
        lattices: &'a Lattices,
        members: &'a BTreeSet<SharedMember>,
    ) -> Self {
        FactDb {
            program,
            lattices,
            members,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// The fingerprint of one fact on this snapshot.
    pub(crate) fn fact_fp(&self, key: &DepKey) -> u64 {
        if let Some(&fp) = self.memo.lock().unwrap().get(key) {
            return fp;
        }
        let fp = self.compute(key);
        self.memo.lock().unwrap().insert(key.clone(), fp);
        fp
    }

    /// Whether every recorded `(key, fingerprint)` still evaluates to
    /// the same fingerprint on this snapshot.
    pub(crate) fn deps_green(&self, deps: &[(DepKey, u64)]) -> bool {
        deps.iter().all(|(k, fp)| self.fact_fp(k) == *fp)
    }

    /// Evaluates a read-set into `(key, fingerprint)` pairs for
    /// admission alongside a fresh entry.
    pub(crate) fn fingerprint(&self, keys: impl IntoIterator<Item = DepKey>) -> Vec<(DepKey, u64)> {
        keys.into_iter()
            .map(|k| {
                let fp = self.fact_fp(&k);
                (k, fp)
            })
            .collect()
    }

    fn compute(&self, key: &DepKey) -> u64 {
        let mut h = Fnv64::new();
        match key {
            DepKey::Iface(class) => match self.program.class_untracked(class) {
                Some(c) => {
                    h.write_u64(1);
                    h.write_u64(sjava_analysis::shard::class_interface_hash(c));
                }
                None => h.write_u64(0),
            },
            DepKey::Resolve(class, method) => {
                // The walk itself is part of the fact: every visited class
                // name is hashed, so re-routing the chain (a superclass
                // edit) perturbs the fingerprint even when the eventual
                // declaration is unchanged.
                let mut cur = self.program.class_untracked(class);
                loop {
                    let Some(c) = cur else {
                        h.write_u64(0);
                        break;
                    };
                    h.write_str(&c.name);
                    if let Some(m) = c.methods.iter().find(|m| m.name == *method) {
                        h.write_u64(1);
                        h.write_u64(hash_debug(&c.annots));
                        h.write_str(&m.name);
                        h.write_u64(m.is_static as u64);
                        h.write_u64(hash_debug(&m.annots));
                        h.write_u64(hash_debug(&m.ret));
                        h.write_u64(hash_debug(&m.params));
                        h.write_u64(span_bits(m.span));
                        break;
                    }
                    cur = c
                        .superclass
                        .as_deref()
                        .and_then(|s| self.program.class_untracked(s));
                }
            }
            DepKey::Field(class, field) => {
                let mut cur = self.program.class_untracked(class);
                loop {
                    let Some(c) = cur else {
                        h.write_u64(0);
                        break;
                    };
                    h.write_str(&c.name);
                    if let Some(f) = c.fields.iter().find(|f| f.name == *field) {
                        h.write_u64(1);
                        h.write_u64(hash_debug(f));
                        break;
                    }
                    cur = c
                        .superclass
                        .as_deref()
                        .and_then(|s| self.program.class_untracked(s));
                }
            }
            DepKey::MethodFacts(class, method) => {
                match self
                    .program
                    .class_untracked(class)
                    .and_then(|c| c.methods.iter().find(|m| m.name == *method).map(|m| (c, m)))
                {
                    Some((c, m)) => {
                        h.write_u64(1);
                        // The effective annotations cover the method's own
                        // lattice/locations and the class @METHODDEFAULT;
                        // the resolved return/pc locations additionally
                        // cover cross-class unqualified-element resolution.
                        h.write_u64(hash_debug(&effective_method_annots(c, m)));
                        h.write_u64(c.annots.trusted as u64);
                        match self.lattices.methods.get(&(class.clone(), method.clone())) {
                            Some(info) => {
                                h.write_u64(1);
                                h.write_u64(hash_debug(&info.return_loc));
                                h.write_u64(hash_debug(&info.pc_loc));
                                h.write_u64(info.trusted as u64);
                            }
                            None => h.write_u64(0),
                        }
                    }
                    None => h.write_u64(0),
                }
            }
            DepKey::ClassLattice(class) => {
                h.write_u64(hash_debug(
                    &self
                        .program
                        .class_untracked(class)
                        .map(|c| &c.annots.lattice),
                ));
            }
            DepKey::LocOwner(name) => {
                // Declaration order matters to the uniqueness rule, so the
                // fold is over class names in source order.
                for c in &self.program.classes {
                    let declares = c
                        .annots
                        .lattice
                        .as_ref()
                        .map(|l| l.names().iter().any(|n| n == name))
                        .unwrap_or(false);
                    if declares {
                        h.write_str(&c.name);
                    }
                }
            }
            DepKey::SharedMember(class, field) => {
                h.write_u64(self.members.contains(&(class.clone(), field.clone())) as u64);
            }
            DepKey::SharedGate => h.write_u64(self.members.is_empty() as u64),
            // Completion is a pure function of its canonical graph key:
            // the fact can never go stale, so its fingerprint is constant.
            DepKey::Completion(_) => h.write_u64(0),
        }
        h.finish()
    }
}

// ---- read-set wire codec ------------------------------------------------

fn tag_of(key: &DepKey) -> u8 {
    match key {
        DepKey::Iface(_) => 1,
        DepKey::Resolve(..) => 2,
        DepKey::Field(..) => 3,
        DepKey::MethodFacts(..) => 4,
        DepKey::ClassLattice(_) => 5,
        DepKey::LocOwner(_) => 6,
        DepKey::SharedMember(..) => 7,
        DepKey::SharedGate => 8,
        DepKey::Completion(_) => 9,
    }
}

/// Appends the deterministic encoding of a recorded read-set to `buf`:
/// the pair count, then each `(key, fingerprint)`.
pub(crate) fn put_deps(buf: &mut Vec<u8>, deps: &[(DepKey, u64)]) {
    wire::put_u64(buf, deps.len() as u64);
    for (key, fp) in deps {
        buf.push(tag_of(key));
        match key {
            DepKey::Iface(a) | DepKey::ClassLattice(a) | DepKey::LocOwner(a) => {
                wire::put_str(buf, a);
            }
            DepKey::Resolve(a, b)
            | DepKey::Field(a, b)
            | DepKey::MethodFacts(a, b)
            | DepKey::SharedMember(a, b) => {
                wire::put_str(buf, a);
                wire::put_str(buf, b);
            }
            DepKey::SharedGate => {}
            DepKey::Completion(k) => wire::put_u64(buf, *k),
        }
        wire::put_u64(buf, *fp);
    }
}

/// Reads a read-set written by [`put_deps`]; `None` on any truncation or
/// bad tag.
pub(crate) fn read_deps(r: &mut Reader<'_>) -> Option<Vec<(DepKey, u64)>> {
    let n = r.count()?;
    let mut deps = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let key = match r.u8()? {
            1 => DepKey::Iface(r.string()?),
            2 => DepKey::Resolve(r.string()?, r.string()?),
            3 => DepKey::Field(r.string()?, r.string()?),
            4 => DepKey::MethodFacts(r.string()?, r.string()?),
            5 => DepKey::ClassLattice(r.string()?),
            6 => DepKey::LocOwner(r.string()?),
            7 => DepKey::SharedMember(r.string()?, r.string()?),
            8 => DepKey::SharedGate,
            9 => DepKey::Completion(r.u64()?),
            _ => return None,
        };
        deps.push((key, r.u64()?));
    }
    Some(deps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_syntax::diag::Diagnostics;
    use sjava_syntax::parse;

    fn snapshot(src: &str) -> (Program, Lattices, BTreeSet<SharedMember>) {
        let p = parse(src).expect("parses");
        let mut d = Diagnostics::new();
        let l = Lattices::build(&p, &mut d);
        let m = sjava_core::shared::shared_members(&p, &l);
        (p, l, m)
    }

    #[test]
    fn deps_round_trip_through_the_codec() {
        let deps = vec![
            (DepKey::Iface("A".into()), 1),
            (DepKey::Resolve("A".into(), "m".into()), 2),
            (DepKey::Field("A".into(), "x".into()), 3),
            (DepKey::MethodFacts("A".into(), "m".into()), 4),
            (DepKey::ClassLattice("A".into()), 5),
            (DepKey::LocOwner("HI".into()), 6),
            (DepKey::SharedMember("A".into(), "x".into()), 7),
            (DepKey::SharedGate, 8),
            (DepKey::Completion(99), 9),
        ];
        let mut buf = Vec::new();
        put_deps(&mut buf, &deps);
        let mut r = Reader::new(&buf);
        assert_eq!(read_deps(&mut r), Some(deps));
        assert!(r.is_exhausted(), "the reader consumes exactly the read-set");
        // Any truncation reads as None.
        for cut in 0..buf.len() {
            assert_eq!(
                read_deps(&mut Reader::new(&buf[..cut])),
                None,
                "truncation at {cut}"
            );
        }
    }

    #[test]
    fn unrelated_edit_keeps_facts_green() {
        let (p1, l1, m1) =
            snapshot(r#"@LATTICE("A<B") class W { @LOC("A") int x; void f() { } void g() { } }"#);
        let (p2, l2, m2) = snapshot(
            r#"@LATTICE("A<B") class W { @LOC("A") int x; void f() { int z = 1; } void g() { } }"#,
        );
        let db1 = FactDb::new(&p1, &l1, &m1);
        let db2 = FactDb::new(&p2, &l2, &m2);
        // Growing `f`'s body never perturbs facts about the declarations
        // at or before `f` — header spans upstream of the edit are fixed.
        for key in [
            DepKey::Field("W".into(), "x".into()),
            DepKey::ClassLattice("W".into()),
            DepKey::Resolve("W".into(), "f".into()),
            DepKey::MethodFacts("W".into(), "f".into()),
            DepKey::SharedGate,
        ] {
            assert_eq!(db1.fact_fp(&key), db2.fact_fp(&key), "{key:?} went red");
        }
        // But the whole-interface fact of the edited class does move
        // (`g`'s header span shifted), which is exactly why per-method
        // checks record the finer keys instead of `Iface`: under the old
        // coarse cutoff this one body edit invalidated every method of
        // every client of `W`.
        assert_ne!(
            db1.fact_fp(&DepKey::Iface("W".into())),
            db2.fact_fp(&DepKey::Iface("W".into()))
        );
    }

    #[test]
    fn loc_edit_reds_exactly_the_touched_field_fact() {
        let (p1, l1, m1) = snapshot(
            r#"@LATTICE("A<B") class W { @LOC("A") int x; @LOC("B") int y; void f() { } }"#,
        );
        let (p2, l2, m2) = snapshot(
            r#"@LATTICE("A<B") class W { @LOC("B") int x; @LOC("B") int y; void f() { } }"#,
        );
        let db1 = FactDb::new(&p1, &l1, &m1);
        let db2 = FactDb::new(&p2, &l2, &m2);
        assert_ne!(
            db1.fact_fp(&DepKey::Field("W".into(), "x".into())),
            db2.fact_fp(&DepKey::Field("W".into(), "x".into())),
            "the edited field's fact must go red"
        );
        assert_eq!(
            db1.fact_fp(&DepKey::Field("W".into(), "y".into())),
            db2.fact_fp(&DepKey::Field("W".into(), "y".into())),
            "the untouched field's fact stays green"
        );
        assert_eq!(
            db1.fact_fp(&DepKey::ClassLattice("W".into())),
            db2.fact_fp(&DepKey::ClassLattice("W".into()))
        );
    }

    #[test]
    fn missing_and_empty_never_collide() {
        let (p, l, m) = snapshot("class A { void f() { } }");
        let db = FactDb::new(&p, &l, &m);
        assert_ne!(
            db.fact_fp(&DepKey::Iface("A".into())),
            db.fact_fp(&DepKey::Iface("Ghost".into())),
        );
        assert_ne!(
            db.fact_fp(&DepKey::Resolve("A".into(), "f".into())),
            db.fact_fp(&DepKey::Resolve("A".into(), "ghost".into())),
        );
    }

    #[test]
    fn superclass_rerouting_perturbs_resolution_facts() {
        let (p1, l1, m1) = snapshot(
            "class P { void f() { } } class Q extends P { } class S extends Q { void g() { } }",
        );
        // Same declaration of f, but S now skips Q.
        let (p2, l2, m2) = snapshot(
            "class P { void f() { } } class Q extends P { } class S extends P { void g() { } }",
        );
        let db1 = FactDb::new(&p1, &l1, &m1);
        let db2 = FactDb::new(&p2, &l2, &m2);
        assert_ne!(
            db1.fact_fp(&DepKey::Resolve("S".into(), "f".into())),
            db2.fact_fp(&DepKey::Resolve("S".into(), "f".into())),
            "a re-routed inheritance chain is a different resolution fact"
        );
    }
}
