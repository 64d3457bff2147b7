//! Fixture comparison shared by the snapshot suites (`golden`,
//! `fuzz_fixtures`, `vm_equiv`).

use std::fs;
use std::path::{Path, PathBuf};

/// Set to `1` to rewrite the fixtures instead of comparing against them.
pub const REGEN_ENV: &str = "SJAVA_REGEN_GOLDEN";

/// `tests/golden/<rel>` of this crate.
pub fn fixture_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(rel)
}

/// Asserts `rendered` equals the fixture at `path` byte for byte, or
/// writes it there when `SJAVA_REGEN_GOLDEN=1`.
pub fn assert_matches_fixture(path: &Path, rendered: &str) {
    if std::env::var(REGEN_ENV).as_deref() == Ok("1") {
        fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
        fs::write(path, rendered).expect("write fixture");
        return;
    }
    let expected = fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with {REGEN_ENV}=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "golden mismatch for {}; if the new output is intended, \
         regenerate with {REGEN_ENV}=1 and review the fixture diff",
        path.display()
    );
}
