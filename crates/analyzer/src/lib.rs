//! ftl-analyzer — repo-invariant static analysis for the ftl workspace.
//!
//! Two invariants that neither the type system nor clippy can state are
//! enforced lexically:
//!
//! * **FTL001** no-alloc hot path — `// ftl-analyzer: hot-path` functions
//!   and their transitive workspace callees never allocate (a call-graph
//!   closure no lint can express);
//! * **FTL003** panic-free map lookups — `ftl-engine`/`ftl-labels`/
//!   `ftl-server`/`ftl-obs`/`ftl-chaos` non-test code never indexes a map
//!   (`map[&k]`), which no clippy lint sees.
//!
//! Everything else the serving path promises (no unwrap/expect/panic, no
//! slice or string indexing, no locks, deterministic hashing) is enforced
//! by clippy through `clippy.toml` and the per-crate `[lints.clippy]`
//! sets.
//!
//! The crate is dependency-free: a small Rust lexer ([`lexer`]), a
//! function/annotation model ([`model`]), and the rule engine ([`rules`]).
//! `src/main.rs` wraps them in the `cargo run -p ftl-analyzer -- --check`
//! CLI that CI runs; see `docs/static-analysis.md` for the day-to-day
//! workflow.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod model;
pub mod rules;

pub use model::{RuleId, SourceFile};
pub use rules::{run_all, Finding};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Collects and models every `crates/*/src/**.rs` file under `root`.
///
/// Files are returned sorted by repo-relative path so the diagnostics are
/// deterministic. Fixture trees
/// (anything outside a crate's `src/`) are never picked up.
///
/// # Errors
///
/// Propagates I/O errors from directory walking or file reads.
pub fn walk_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let crates_dir = root.join("crates");
    let mut paths: Vec<(String, PathBuf)> = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let crate_name = entry.file_name().to_string_lossy().into_owned();
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut |p| paths.push((crate_name.clone(), p)))?;
        }
    }
    paths.sort_by(|a, b| a.1.cmp(&b.1));
    let mut files = Vec::with_capacity(paths.len());
    for (crate_name, path) in paths {
        let text = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile::parse(rel, crate_name, &text));
    }
    Ok(files)
}

fn collect_rs(dir: &Path, push: &mut dyn FnMut(PathBuf)) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rs(&path, push)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            push(path);
        }
    }
    Ok(())
}
