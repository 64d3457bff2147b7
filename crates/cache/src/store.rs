//! Concurrent content-addressed artifact store — the disk layer behind
//! directory-backed [`crate::IncrementalChecker`] sessions, shared by any
//! number of `sjava check` processes pointed at one `SJAVA_CACHE_DIR`.
//!
//! ## Layout (format v6)
//!
//! Earlier formats serialized the whole session into one monolithic
//! `cache.bin` rewritten after every check — a design that cannot be
//! shared by concurrent processes (last writer wins, dropping half of
//! each process's entries) and that forces a full decode up front. Version
//! 4 introduced **one object per artifact** under a fan-out directory;
//! version 5 re-keyed entries for dependency-tracked revalidation (the
//! key no longer folds the whole-program interface hash). Version 6
//! keeps exactly one object kind, one object per checked method:
//!
//! ```text
//! <dir>/v6/objects/<hh>/<16-hex-key>.entry
//! ```
//!
//! where `<hh>` is the first byte of the key in hex (256-way fan-out).
//! The key is the method's content fingerprint (body + callee
//! summaries), and the payload is the per-method analysis result
//! (`MethodEntry`) followed by the read-set recorded while it
//! was computed: the `(DepKey, fingerprint)` pairs that red-green
//! revalidation re-evaluates. Result and read-set share one checksum and
//! one atomic rename, so a reader can never combine halves from
//! different publishes. Callee sets and check times are not stored:
//! recomputing them costs less than reading them back.
//!
//! Each object file is `MAGIC ‖ version ‖ FNV-64(payload) ‖ payload`.
//!
//! ## Concurrency contract
//!
//! - **Publishes are atomic**: writers encode into a unique temp file
//!   (pid + per-process counter) in the final directory, then `rename`
//!   it over the destination — readers never observe a partially-written
//!   object, even across processes racing on the same key.
//! - **Reads are lock-free**: a read is one `read()` of a complete file
//!   plus a checksum verification; no lock file, no header locks.
//! - **Corruption is tolerated**: a torn, truncated, bit-flipped, or
//!   foreign-format object fails the checksum/bounds checks, is
//!   best-effort deleted, and reads as a miss. The store never replays a
//!   plausibly-decodable-but-wrong artifact: diagnostics are content the
//!   checker trusts verbatim, so "mostly intact" is not good enough.
//! - **Size-bounded**: [`ArtifactStore::evict_to`] deletes
//!   oldest-modified objects first until the store fits a byte budget
//!   (`SJAVA_CACHE_MAX_BYTES` wires this to every persisting check).
//!
//! Entries are content-addressed and valid forever, so eviction is purely
//! a disk-space policy, never a correctness event. A v3 (or older)
//! `cache.bin` in the same directory is ignored wholesale — old formats
//! degrade to clean misses.

use crate::MethodEntry;
use sjava_analysis::heappath::HeapPath;
use sjava_analysis::written::MethodSummary;
use sjava_core::shared::SharedMember;
use sjava_syntax::wire::{self, Reader};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Object-file magic; anything else is ignored wholesale.
const MAGIC: &[u8; 10] = b"SJAVACACHE";
/// Store format version. Versions 1–3 were the monolithic `cache.bin`
/// formats; version 4 introduced the per-object content-addressed store;
/// version 5 re-keyed entries for dependency-tracked revalidation;
/// version 6 folds each entry's read-set into its entry object and drops
/// every other object kind. Old formats live at different paths
/// entirely and are never read — a v6 store opened over an older
/// directory starts from clean misses.
const VERSION: u32 = 6;

/// File extension of the store's one object kind.
const ENTRY_EXT: &str = "entry";

/// Environment variable bounding the store's total size in bytes. When
/// set, every persisting check evicts oldest-modified objects until the
/// store fits. Malformed values warn once on stderr and leave the store
/// unbounded.
pub const MAX_BYTES_ENV: &str = "SJAVA_CACHE_MAX_BYTES";

/// Monotone per-process counter making temp-file names unique even when
/// several threads publish concurrently.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A handle on one on-disk artifact store rooted at a cache directory.
/// Cloning is cheap; handles in different processes pointed at the same
/// directory share the store safely.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// Opens (and creates, if needed) the store under `dir`, verifying
    /// the object tree is writable.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the directory cannot be created —
    /// callers degrade to a no-cache session (see
    /// [`crate::IncrementalChecker::from_env`]).
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ArtifactStore> {
        let root = dir.into().join(format!("v{VERSION}")).join("objects");
        std::fs::create_dir_all(&root)?;
        // `create_dir_all` succeeds on an existing but read-only tree;
        // probe writability explicitly so misconfiguration surfaces at
        // open time, not as silent per-object failures mid-check.
        let probe = root.join(format!(
            ".probe-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&probe, b"")?;
        let _ = std::fs::remove_file(&probe);
        Ok(ArtifactStore { root })
    }

    /// The object-tree root (`<dir>/v6/objects`), exposed for tests and
    /// maintenance tooling.
    pub fn objects_root(&self) -> &Path {
        &self.root
    }

    /// Path of the object holding `key`.
    pub fn object_path(&self, key: u64) -> PathBuf {
        let hex = format!("{key:016x}");
        self.root.join(&hex[..2]).join(format!("{hex}.{ENTRY_EXT}"))
    }

    /// Reads and verifies an object's payload. A missing, torn,
    /// truncated, bit-flipped, or foreign-format file reads as `None`;
    /// verifiably corrupt files are best-effort deleted so the next
    /// writer republishes them.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let path = self.object_path(key);
        let buf = std::fs::read(&path).ok()?;
        match decode_object(&buf) {
            Some(payload) => Some(payload.to_vec()),
            None => {
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Publishes `payload` under `key` atomically (temp file + rename),
    /// replacing any object already there: the key does not fold
    /// interface facts, so after an interface edit the same key can
    /// legitimately hold a different result and read-set.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; callers treat persistence as best-effort.
    pub fn put(&self, key: u64, payload: &[u8]) -> std::io::Result<()> {
        let path = self.object_path(key);
        let dir = path.parent().expect("object path has a fan-out parent");
        std::fs::create_dir_all(dir)?;
        let mut buf = Vec::with_capacity(MAGIC.len() + 12 + payload.len());
        buf.extend_from_slice(MAGIC);
        wire::put_u32(&mut buf, VERSION);
        wire::put_u64(&mut buf, checksum(payload));
        buf.extend_from_slice(payload);
        // The temp file lives in the destination directory so the final
        // `rename` never crosses a filesystem boundary (which would turn
        // the atomic publish into a copy).
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &buf)?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Total bytes currently held by the store's objects.
    pub fn size_bytes(&self) -> u64 {
        self.walk().iter().map(|(_, len, _)| len).sum()
    }

    /// Number of objects currently in the store.
    pub fn object_count(&self) -> usize {
        self.walk().len()
    }

    /// Deletes oldest-modified objects until the store holds at most
    /// `max_bytes`, returning the number of objects evicted. Eviction is
    /// approximate LRU: publish time stands in for use time, which is
    /// conservative for content-addressed entries (old-but-hot entries
    /// may be evicted and will simply be recomputed and republished — a
    /// disk-space policy, never a correctness event).
    pub fn evict_to(&self, max_bytes: u64) -> usize {
        let mut objects = self.walk();
        let mut total: u64 = objects.iter().map(|(_, len, _)| len).sum();
        if total <= max_bytes {
            return 0;
        }
        // Oldest first; path tiebreak keeps the order total so racing
        // evictors delete the same prefix.
        objects.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
        let mut evicted = 0;
        for (_, len, path) in objects {
            if total <= max_bytes {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                evicted += 1;
            }
        }
        evicted
    }

    /// Every object as `(mtime, len, path)`. Temp files and foreign names
    /// are skipped; a concurrently-deleted file is silently dropped.
    fn walk(&self) -> Vec<(std::time::SystemTime, u64, PathBuf)> {
        let mut out = Vec::new();
        let Ok(fanout) = std::fs::read_dir(&self.root) else {
            return out;
        };
        for sub in fanout.flatten() {
            let Ok(entries) = std::fs::read_dir(sub.path()) else {
                continue;
            };
            for f in entries.flatten() {
                let name = f.file_name();
                if name.to_string_lossy().starts_with('.') {
                    continue; // temp or probe file
                }
                if let Ok(meta) = f.metadata() {
                    if meta.is_file() {
                        let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                        out.push((mtime, meta.len(), f.path()));
                    }
                }
            }
        }
        out
    }

    // ---- typed helpers over the raw object API -------------------------

    /// Fetches and decodes a per-method entry with its read-set. An
    /// object whose checksum holds but whose payload does not decode (a
    /// truncated read-set, a bad tag, trailing bytes) is deleted like
    /// any other corrupt object and reads as a miss.
    pub(crate) fn get_entry(&self, key: u64) -> Option<MethodEntry> {
        let entry = decode_entry(&self.get(key)?);
        if entry.is_none() {
            let _ = std::fs::remove_file(self.object_path(key));
        }
        entry
    }

    /// Publishes a per-method entry together with its read-set.
    pub(crate) fn put_entry(&self, key: u64, entry: &MethodEntry) -> std::io::Result<()> {
        self.put(key, &encode_entry(entry))
    }
}

/// FNV-64 digest of the payload bytes, stored in the object header and
/// verified before any decoding happens.
fn checksum(payload: &[u8]) -> u64 {
    let mut h = sjava_lattice::Fnv64::new();
    h.write(payload);
    h.finish()
}

/// Validates an object file's header and checksum, returning the payload.
fn decode_object(buf: &[u8]) -> Option<&[u8]> {
    let mut r = Reader::new(buf);
    if r.bytes(MAGIC.len())? != MAGIC || r.u32()? != VERSION {
        return None;
    }
    let expected = r.u64()?;
    let payload = r.rest();
    (checksum(payload) == expected).then_some(payload)
}

// ---- payload codecs ----------------------------------------------------

fn put_paths(buf: &mut Vec<u8>, paths: &BTreeSet<HeapPath>) {
    wire::put_u64(buf, paths.len() as u64);
    for p in paths {
        wire::put_u64(buf, p.0.len() as u64);
        for seg in &p.0 {
            wire::put_str(buf, seg);
        }
    }
}

fn put_members(buf: &mut Vec<u8>, members: &BTreeSet<SharedMember>) {
    wire::put_u64(buf, members.len() as u64);
    for (class, field) in members {
        wire::put_str(buf, class);
        wire::put_str(buf, field);
    }
}

/// Deterministic encoding of one per-method entry, result then read-set
/// (equal entries produce equal bytes — all sets are ordered).
pub(crate) fn encode_entry(e: &MethodEntry) -> Vec<u8> {
    let mut buf = Vec::new();
    put_paths(&mut buf, &e.summary.reads);
    put_paths(&mut buf, &e.summary.may_writes);
    put_paths(&mut buf, &e.summary.must_writes);
    wire::put_diags(&mut buf, &e.flow);
    wire::put_diags(&mut buf, &e.alias);
    buf.push(e.shared_present as u8);
    put_members(&mut buf, &e.shared_clears);
    put_members(&mut buf, &e.shared_reads);
    wire::put_u64(&mut buf, e.term_failures as u64);
    wire::put_diags(&mut buf, &e.term);
    crate::deps::put_deps(&mut buf, &e.deps);
    buf
}

fn paths(r: &mut Reader<'_>) -> Option<BTreeSet<HeapPath>> {
    let n = r.count()?;
    let mut out = BTreeSet::new();
    for _ in 0..n {
        let segs = r.count()?;
        let mut path = Vec::new();
        for _ in 0..segs {
            path.push(r.string()?);
        }
        out.insert(HeapPath(path));
    }
    Some(out)
}

fn members(r: &mut Reader<'_>) -> Option<BTreeSet<SharedMember>> {
    let n = r.count()?;
    let mut out = BTreeSet::new();
    for _ in 0..n {
        out.insert((r.string()?, r.string()?));
    }
    Some(out)
}

/// Decodes one per-method entry; `None` on any truncation, bad tag, or
/// trailing garbage.
pub(crate) fn decode_entry(payload: &[u8]) -> Option<MethodEntry> {
    let mut r = Reader::new(payload);
    let entry = MethodEntry {
        summary: MethodSummary {
            reads: paths(&mut r)?,
            may_writes: paths(&mut r)?,
            must_writes: paths(&mut r)?,
        },
        flow: r.diags()?,
        alias: r.diags()?,
        shared_present: match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        },
        shared_clears: members(&mut r)?,
        shared_reads: members(&mut r)?,
        term_failures: r.u64()? as usize,
        term: r.diags()?,
        deps: crate::deps::read_deps(&mut r)?,
    };
    r.is_exhausted().then_some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_syntax::span::Span;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sjava-store-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Replaces a file's bytes with a fresh inode. Truncating a file that
    /// holds data in place makes ext4 (`auto_da_alloc`) start writeback,
    /// and the store's next delete of that file waits for it.
    fn overwrite(path: &Path, bytes: &[u8]) {
        let _ = std::fs::remove_file(path);
        std::fs::write(path, bytes).expect("write object");
    }

    fn sample_entry() -> MethodEntry {
        MethodEntry {
            summary: MethodSummary {
                reads: [HeapPath(vec!["a".into(), "b".into()])].into(),
                may_writes: [HeapPath::root("x")].into(),
                must_writes: BTreeSet::new(),
            },
            flow: vec![
                sjava_syntax::diag::Diag::flow_up("flow violation", Span::new(3, 9))
                    .with_note("note")
                    .with_label(Span::new(0, 2), "lattice declared here")
                    .with_suggestion(Span::new(3, 3), "fix ", "insert fix"),
            ],
            alias: vec![],
            shared_present: true,
            shared_clears: [("C".to_string(), "f".to_string())].into(),
            shared_reads: BTreeSet::new(),
            term_failures: 2,
            term: vec![sjava_syntax::diag::Diag::unprovable_loop(
                "loop may not terminate",
                Span::new(10, 20),
            )],
            deps: vec![
                (sjava_syntax::track::DepKey::Iface("A".into()), 11),
                (sjava_syntax::track::DepKey::SharedGate, 22),
            ],
        }
    }

    #[test]
    fn objects_round_trip() {
        let dir = scratch("roundtrip");
        let store = ArtifactStore::open(&dir).expect("open");
        let entry = sample_entry();
        assert!(!entry.deps.is_empty(), "the read-set must ride along");
        store.put_entry(42, &entry).expect("put entry");
        assert_eq!(store.get_entry(42).expect("hit"), entry);
        assert_eq!(store.get_entry(43), None, "unrelated key misses");
        assert_eq!(store.object_count(), 1, "one object per entry");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_publish_replaces() {
        // The same key can hold a different result or read-set after an
        // interface edit; re-publishing must rewrite both halves.
        let dir = scratch("replace");
        let store = ArtifactStore::open(&dir).expect("open");
        store.put_entry(3, &sample_entry()).expect("put");
        let mut other = sample_entry();
        other.term_failures = 9;
        other.deps[0].1 = 99;
        store.put_entry(3, &other).expect("re-put");
        assert_eq!(store.get_entry(3).expect("hit"), other);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_flipped_bit_reads_as_a_miss() {
        let dir = scratch("bitflip");
        let store = ArtifactStore::open(&dir).expect("open");
        store.put_entry(1, &sample_entry()).expect("put");
        let path = store.object_path(1);
        let clean = std::fs::read(&path).expect("read");
        for pos in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[pos] ^= 0x10;
            overwrite(&path, &corrupt);
            assert_eq!(
                store.get_entry(1),
                None,
                "flipped byte at {pos} must invalidate the object"
            );
            // The corrupt object was deleted so a writer can republish.
            assert!(!path.exists(), "corrupt object at {pos} must be removed");
            overwrite(&path, &clean);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncations_and_foreign_files_read_as_misses() {
        let dir = scratch("truncate");
        let store = ArtifactStore::open(&dir).expect("open");
        store.put_entry(5, &sample_entry()).expect("put");
        let path = store.object_path(5);
        let clean = std::fs::read(&path).expect("read");
        for cut in 0..clean.len() {
            overwrite(&path, &clean[..cut]);
            assert_eq!(store.get_entry(5), None, "truncation at {cut} must miss");
        }
        std::fs::write(&path, b"NOTANOBJECT").expect("foreign");
        assert_eq!(store.get_entry(5), None);
        // Old monolithic formats (a `cache.bin` beside the object tree)
        // are ignored wholesale — the store never even opens them.
        std::fs::write(dir.join("cache.bin"), b"SJAVACACHE old format").expect("v3 file");
        assert_eq!(store.get_entry(5), None);
        assert_eq!(store.get_entry(6), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksummed_but_undecodable_read_sets_are_deleted() {
        // The checksum covers what the writer wrote; a payload whose
        // read-set half does not decode (cut short, or an unknown dep
        // tag) must still read as a miss and be removed so the next
        // writer republishes it.
        let dir = scratch("deps-half");
        let store = ArtifactStore::open(&dir).expect("open");
        let entry = sample_entry();
        let payload = encode_entry(&entry);
        // The read-set starts where the result ends: an entry with an
        // empty read-set encodes the same result plus an 8-byte count.
        let deps_at = encode_entry(&MethodEntry {
            deps: Vec::new(),
            ..entry.clone()
        })
        .len()
            - 8;
        let path = store.object_path(8);
        for cut in deps_at..payload.len() {
            store.put(8, &payload[..cut]).expect("put truncated");
            assert_eq!(store.get_entry(8), None, "read-set cut at {cut} must miss");
            assert!(!path.exists(), "read-set cut at {cut} must be removed");
        }
        let mut bad_tag = payload.clone();
        bad_tag[deps_at + 8] = 0xFF;
        store.put(8, &bad_tag).expect("put bad tag");
        assert_eq!(store.get_entry(8), None, "an unknown dep tag must miss");
        assert!(!path.exists(), "a bad-tag object must be removed");
        let mut trailing = payload;
        trailing.push(0);
        store.put(8, &trailing).expect("put trailing");
        assert_eq!(store.get_entry(8), None, "trailing bytes must miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_oldest_first_and_bounded() {
        let dir = scratch("evict");
        let store = ArtifactStore::open(&dir).expect("open");
        // Three equal-sized entry objects with strictly increasing mtimes.
        for key in 0..3u64 {
            store.put_entry(key, &sample_entry()).expect("put");
            let path = store.object_path(key);
            // Space the mtimes out explicitly — filesystem timestamp
            // granularity can be coarse.
            let t = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000_000 + key * 1000);
            let f = std::fs::File::options()
                .append(true)
                .open(&path)
                .expect("open");
            f.set_modified(t).expect("set mtime");
        }
        let total = store.size_bytes();
        let per_object = total / 3;
        // Budget for two objects: the oldest (key 0) must go.
        let evicted = store.evict_to(per_object * 2);
        assert_eq!(evicted, 1);
        assert_eq!(store.get_entry(0), None, "oldest object evicted");
        assert_eq!(store.get_entry(1), Some(sample_entry()));
        assert_eq!(store.get_entry(2), Some(sample_entry()));
        // Already under budget: no-op.
        assert_eq!(store.evict_to(u64::MAX), 0);
        // Zero budget clears everything.
        store.evict_to(0);
        assert_eq!(store.object_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_on_one_key_never_tear_a_read() {
        // N writers race publishing the same key while readers poll: every
        // successful read must be one of the complete payloads, never a
        // torn mixture. (In real use content addressing makes all writers
        // agree on the payload; racing distinct payloads is strictly
        // harsher than production.)
        let dir = scratch("torn");
        let store = ArtifactStore::open(&dir).expect("open");
        let payloads: Vec<Vec<u8>> = (0..4u8)
            .map(|w| {
                // Large enough that a torn write would be observable.
                (0..64 * 1024).map(|i| w.wrapping_add(i as u8)).collect()
            })
            .collect();
        std::thread::scope(|s| {
            for p in &payloads {
                let store = &store;
                s.spawn(move || {
                    for _ in 0..50 {
                        store.put(77, p).expect("put");
                    }
                });
            }
            for _ in 0..4 {
                let store = &store;
                let payloads = &payloads;
                s.spawn(move || {
                    for _ in 0..200 {
                        if let Some(got) = store.get(77) {
                            assert!(payloads.contains(&got), "read returned a torn object");
                        }
                    }
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
