//! Analyzer self-tests: both rules fire on the bad-corpus fixtures, the
//! exemptions hold, and the real workspace tree is clean. The clippy wall
//! that replaced FTL002/FTL004 is probed live: small crates carrying the
//! serving crates' lint tables go through `cargo clippy -- -D warnings`.

use ftl_analyzer::model::RuleId;
use ftl_analyzer::rules::Finding;
use ftl_analyzer::{rules, walk_workspace};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_findings() -> Vec<Finding> {
    let files = walk_workspace(&fixture_root()).expect("fixture tree walks");
    rules::run_all(&files)
}

/// 1-based line of the first fixture line containing `needle`.
fn line_of(rel: &str, needle: &str) -> u32 {
    let text = std::fs::read_to_string(fixture_root().join(rel)).expect("fixture readable");
    for (i, l) in text.lines().enumerate() {
        if l.contains(needle) {
            return (i + 1) as u32;
        }
    }
    panic!("{needle:?} not found in {rel}");
}

fn has(findings: &[Finding], rule: RuleId, file_suffix: &str, line: u32) -> bool {
    findings
        .iter()
        .any(|f| f.rule == rule && f.file.ends_with(file_suffix) && f.line == line)
}

/// One diagnostic from a clippy probe: the lint (`clippy::…`), its 1-based
/// line in the probe's `src/lib.rs`, and the raw JSON record (which
/// carries the `clippy.toml` reason as a note).
struct Lint {
    code: String,
    line: u32,
    record: String,
}

/// Runs the real lint wall on `src` the way CI does (`cargo clippy -- -D
/// warnings`): a throwaway crate named `probe` carrying the `[lints]`
/// tables of `crates/<krate>/Cargo.toml`, checked under the workspace
/// `clippy.toml`. A diagnostic that is not a clippy lint (the probe itself
/// failed to compile, so clippy never looked) fails the calling test.
fn clippy_on(krate: &str, probe: &str, src: &str) -> Vec<Lint> {
    let root = repo_root();
    let manifest = std::fs::read_to_string(root.join(format!("crates/{krate}/Cargo.toml")))
        .expect("crate manifest readable");
    let mut lints = String::new();
    let mut in_lints = false;
    for l in manifest.lines() {
        if l.starts_with('[') {
            in_lints = l.starts_with("[lints");
        }
        if in_lints {
            lints.push_str(l);
            lints.push('\n');
        }
    }
    assert!(
        lints.contains("[lints.clippy]"),
        "crates/{krate}/Cargo.toml has no [lints.clippy] table"
    );
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("clippy-wall")
        .join(probe);
    std::fs::create_dir_all(dir.join("src")).expect("probe dir");
    std::fs::write(
        dir.join("Cargo.toml"),
        format!(
            "[package]\nname = \"{probe}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
             # Its own root, not a member of the enclosing workspace.\n[workspace]\n\n{lints}"
        ),
    )
    .expect("probe manifest");
    std::fs::write(dir.join("src/lib.rs"), src).expect("probe source");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = std::process::Command::new(cargo)
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--message-format=json-diagnostic-short",
            "--manifest-path",
        ])
        .arg(dir.join("Cargo.toml"))
        .args(["--", "-D", "warnings"])
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .env("CLIPPY_CONF_DIR", &root)
        .output()
        .expect("cargo clippy starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut found = Vec::new();
    for record in stdout
        .lines()
        .filter(|l| l.contains("\"reason\":\"compiler-message\""))
    {
        // The short rendering is `src/lib.rs:LINE:COL: error: …`; the
        // closing "aborting due to …" summary has no location.
        let Some((_, at)) = record.split_once("\"rendered\":\"src/lib.rs:") else {
            continue;
        };
        let line = at
            .split(':')
            .next()
            .and_then(|n| n.parse().ok())
            .expect("diagnostic line number");
        let code = record
            .split_once("\"code\":{\"code\":\"")
            .and_then(|(_, c)| c.split('"').next())
            .unwrap_or("")
            .to_string();
        assert!(
            code.starts_with("clippy::"),
            "{probe} does not compile cleanly: {record}"
        );
        found.push(Lint {
            code,
            line,
            record: record.to_string(),
        });
    }
    assert!(
        !found.is_empty() || out.status.success(),
        "cargo clippy failed on {probe} without a diagnostic:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    found
}

/// 1-based line of the first probe line containing `needle`.
fn probe_line(src: &str, needle: &str) -> u32 {
    let i = src
        .lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("{needle:?} not in probe"));
    (i + 1) as u32
}

fn lints_at(lints: &[Lint], line: u32) -> Vec<&str> {
    lints
        .iter()
        .filter(|l| l.line == line)
        .map(|l| l.code.as_str())
        .collect()
}

fn fires(lints: &[Lint], code: &str, line: u32) -> bool {
    lints_at(lints, line).contains(&code)
}

#[test]
fn ftl001_fires_on_hot_fn_and_transitive_callee_only() {
    let findings = fixture_findings();
    let direct = line_of("crates/engine/src/lib.rs", "Vec::new(); // FTL001");
    let transitive = line_of("crates/engine/src/lib.rs", "let copy = xs.to_vec()");
    let cold = line_of("crates/engine/src/lib.rs", "cold-alloc-site");
    assert!(has(
        &findings,
        RuleId::HotAlloc,
        "engine/src/lib.rs",
        direct
    ));
    assert!(has(
        &findings,
        RuleId::HotAlloc,
        "engine/src/lib.rs",
        transitive
    ));
    // The transitive finding names its provenance.
    let f = findings
        .iter()
        .find(|f| f.rule == RuleId::HotAlloc && f.line == transitive)
        .unwrap();
    assert!(f.message.contains("via hot_kernel"), "{}", f.message);
    // `untouched` allocates but is not in the hot closure.
    assert!(!has(&findings, RuleId::HotAlloc, "engine/src/lib.rs", cold));
}

#[test]
fn ftl003_fires_on_map_index_in_every_serving_crate_but_honors_allow_and_tests() {
    let findings = fixture_findings();
    for (file, needle) in [
        ("crates/engine/src/lib.rs", "map[&k]"),
        ("crates/engine/src/lib.rs", "map?[&k]"),
        ("crates/labels/src/store.rs", "index[&key]"),
        ("crates/server/src/net.rs", "conns[&id]"),
        ("crates/chaos/src/net.rs", "conns[&id]"),
        ("crates/obs/src/registry.rs", "series[&name]"),
    ] {
        let line = line_of(file, needle);
        let suffix = file.trim_start_matches("crates/");
        assert!(
            has(&findings, RuleId::PanicFree, suffix, line),
            "{file}:{line} `{needle}` must fire"
        );
    }
    let blessed = line_of("crates/engine/src/lib.rs", "map[&0]");
    assert!(
        !has(&findings, RuleId::PanicFree, "engine/src/lib.rs", blessed),
        "fn-level allow(panic-free) exempts the whole body"
    );
    let test_index = line_of("crates/labels/src/store.rs", "m[&1]");
    assert!(
        !has(
            &findings,
            RuleId::PanicFree,
            "labels/src/store.rs",
            test_index
        ),
        "cfg(test) regions are out of scope"
    );
    let out_of_scope = line_of("crates/graph/src/lib.rs", "out-of-scope-site");
    assert!(
        !has(
            &findings,
            RuleId::PanicFree,
            "graph/src/lib.rs",
            out_of_scope
        ),
        "FTL003 covers only the five serving crates"
    );
}

#[test]
fn ftl003_leaves_slice_indexing_and_reference_arrays_to_clippy() {
    // Slice and tuple-field indexing is clippy's `indexing_slicing`; an
    // array literal or slice pattern of references is no index at all.
    let findings = fixture_findings();
    let start = line_of("crates/engine/src/lib.rs", "pub fn not_map_indexing");
    let end = line_of(
        "crates/engine/src/lib.rs",
        "// ftl-analyzer: allow(panic-free)",
    );
    let inside: Vec<String> = findings
        .iter()
        .filter(|f| f.file.ends_with("engine/src/lib.rs") && (start..end).contains(&f.line))
        .map(Finding::render)
        .collect();
    assert!(inside.is_empty(), "{inside:?}");
}

#[test]
fn annotation_errors_fire() {
    let findings = fixture_findings();
    let typo = line_of("crates/engine/src/typo.rs", "allow(hot-allok)");
    let dangling = line_of("crates/engine/src/typo.rs", "ftl-analyzer: hot-path");
    let errors: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.file.ends_with("typo.rs"))
        .collect();
    assert!(errors
        .iter()
        .any(|f| f.line == typo && f.message.contains("hot-allok")));
    assert!(errors
        .iter()
        .any(|f| f.line == dangling && f.message.contains("dangling")));
}

#[test]
fn banned_names_in_strings_and_comments_never_fire() {
    let findings = fixture_findings();
    let line = line_of("crates/engine/src/lib.rs", "just a comment");
    let lit = line_of("crates/engine/src/lib.rs", "\"map[&k] .to_vec()");
    assert!(findings
        .iter()
        .filter(|f| f.file.ends_with("engine/src/lib.rs"))
        .all(|f| f.line != line && f.line != lit));
}

#[test]
fn clippy_wall_carries_the_retired_rules() {
    // FTL002 (locks), FTL004 (default hashers) and FTL003's unwrap/panic/
    // slice-index clauses are clippy's now: losing one of these entries
    // would silently weaken the wall, so the config itself is under test.
    let root = repo_root();
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect("readable");
    let clippy = read("clippy.toml");
    for path in [
        "std::sync::Mutex",
        "std::sync::RwLock",
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::collections::hash_map::RandomState",
        "std::sync::Mutex::lock",
        "std::sync::Mutex::try_lock",
        "std::sync::RwLock::read",
        "std::sync::RwLock::write",
        "std::sync::RwLock::try_read",
        "std::sync::RwLock::try_write",
    ] {
        assert!(
            clippy.contains(&format!("path = \"{path}\"")),
            "clippy.toml no longer disallows {path}"
        );
    }
    for krate in ["engine", "labels", "server", "obs", "chaos"] {
        let manifest = read(&format!("crates/{krate}/Cargo.toml"));
        for lint in [
            "unwrap_used",
            "expect_used",
            "panic",
            "unreachable",
            "indexing_slicing",
            "string_slice",
            "panic_in_result_fn",
        ] {
            let deny = format!("{lint} = \"deny\"");
            assert!(
                manifest.lines().any(|l| l.trim() == deny),
                "crates/{krate}/Cargo.toml no longer denies clippy::{lint}"
            );
        }
    }
}

// The five tests below keep the retired FTL002/FTL004 fixture cases as
// live probes: each is compiled by clippy under the real manifest lints
// and `clippy.toml`, so a wall that stops catching a case fails here.

const LOCK_PROBE: &str = r#"use std::sync::Mutex; // use-site

pub fn take(m: &Mutex<u64>) -> u64 {
    match m.lock() { // lock-site
        Ok(g) => *g,
        Err(_) => 0,
    }
}
"#;

#[test]
fn ftl002_fires_on_mutex_and_lock_calls_in_engine_and_server() {
    let use_line = probe_line(LOCK_PROBE, "// use-site");
    let lock_line = probe_line(LOCK_PROBE, "// lock-site");
    // FTL002 covered engine and server only; `clippy.toml` is
    // workspace-wide, so labels now gets the same wall.
    for krate in ["engine", "server", "labels"] {
        let lints = clippy_on(krate, &format!("lock_{krate}"), LOCK_PROBE);
        assert!(
            fires(&lints, "clippy::disallowed_types", use_line),
            "{krate}: Mutex named: {:?}",
            lints_at(&lints, use_line)
        );
        assert!(
            fires(&lints, "clippy::disallowed_methods", lock_line),
            "{krate}: .lock() called: {:?}",
            lints_at(&lints, lock_line)
        );
    }
}

#[test]
fn ftl002_server_scope_flags_locks_but_not_socket_read_write() {
    let src = r#"use std::io::{Read, Write};
use std::sync::Mutex; // use-site

pub fn bump(m: &Mutex<u64>) -> u64 {
    *m.lock().expect("poisoned") // lock-site
}

pub fn io(stream: &mut std::net::TcpStream, buf: &mut [u8]) -> usize {
    let n = stream.read(buf).unwrap_or(0); // socket-read-site
    let w = stream.write(buf).unwrap_or(0); // socket-write-site
    n + w
}

// The blessed writer side, as in batcher.rs: allowed with its reason.
#[allow(clippy::disallowed_types, clippy::disallowed_methods)]
pub fn blessed(m: &Mutex<u64>) -> u64 {
    m.lock().map(|g| *g).unwrap_or(0) // blessed-site
}
"#;
    let lints = clippy_on("server", "server_net", src);
    assert!(fires(
        &lints,
        "clippy::disallowed_types",
        probe_line(src, "// use-site")
    ));
    let lock_line = probe_line(src, "// lock-site");
    assert!(fires(&lints, "clippy::disallowed_methods", lock_line));
    assert!(fires(&lints, "clippy::expect_used", lock_line));
    for site in ["socket-read-site", "socket-write-site"] {
        let line = probe_line(src, site);
        assert!(
            lints_at(&lints, line).is_empty(),
            "socket I/O in ftl-server is not a lock: {:?}",
            lints_at(&lints, line)
        );
    }
    let blessed = probe_line(src, "blessed-site");
    assert!(
        lints_at(&lints, blessed).is_empty(),
        "fn-level allow exempts the blessed writer side: {:?}",
        lints_at(&lints, blessed)
    );
}

#[test]
fn chaos_scope_gets_narrow_lock_triggers_and_panic_and_hash_rules() {
    let src = r#"use std::collections::HashMap; // map-site
use std::io::{Read, Write};
use std::sync::Mutex; // use-site

pub fn plan_slot(m: &Mutex<u64>) -> u64 {
    *m.lock().expect("poisoned") // lock-site
}

pub fn pump_io(stream: &mut std::net::TcpStream, buf: &mut [u8]) -> usize {
    let n = stream.read(buf).unwrap_or(0); // pump-read-site
    let w = stream.write(buf).unwrap_or(0); // pump-write-site
    n + w
}

pub fn splice(garbage: &[u8], i: usize) -> u8 {
    garbage[i] // index-site
}

pub fn plans(map: &HashMap<u64, u32>) -> usize {
    map.len()
}
"#;
    let lints = clippy_on("chaos", "chaos_net", src);
    let lock_line = probe_line(src, "// lock-site");
    assert!(fires(
        &lints,
        "clippy::disallowed_types",
        probe_line(src, "// use-site")
    ));
    assert!(fires(&lints, "clippy::disallowed_methods", lock_line));
    for site in ["pump-read-site", "pump-write-site"] {
        let line = probe_line(src, site);
        assert!(
            lints_at(&lints, line).is_empty(),
            "pump socket I/O in ftl-chaos is not a lock: {:?}",
            lints_at(&lints, line)
        );
    }
    // ftl-chaos has no blessed side: the lock diagnostic carries the
    // lock-free reason from `clippy.toml`.
    let lock_msg = lints
        .iter()
        .find(|l| l.code == "clippy::disallowed_methods")
        .expect("lock call flagged");
    assert!(
        lock_msg.record.contains("serving reads are lock-free"),
        "{}",
        lock_msg.record
    );
    // The panic-free and hashing walls cover the crate like the other
    // serving crates.
    assert!(fires(&lints, "clippy::expect_used", lock_line));
    assert!(fires(
        &lints,
        "clippy::indexing_slicing",
        probe_line(src, "// index-site")
    ));
    assert!(fires(
        &lints,
        "clippy::disallowed_types",
        probe_line(src, "// map-site")
    ));
}

#[test]
fn ftl004_fires_on_default_hasher_maps_and_honors_allow() {
    let src = r#"use std::collections::HashMap; // map-site
use std::collections::HashSet;

pub fn sizes(m: &HashMap<u32, u32>) -> usize {
    let s: HashSet<u32> = HashSet::new(); // set-site
    m.len() + s.len()
}

// The blessed wrapper, as in det_hash.rs: allowed with its reason.
#[allow(clippy::disallowed_types)]
pub fn blessed() -> usize {
    std::collections::HashSet::<u32>::new().len() // blessed-site
}
"#;
    let map_line = probe_line(src, "// map-site");
    let set_line = probe_line(src, "// set-site");
    let blessed = probe_line(src, "// blessed-site");
    let lints = clippy_on("labels", "labels_store", src);
    assert!(fires(&lints, "clippy::disallowed_types", map_line));
    assert_eq!(
        lints_at(&lints, set_line)
            .iter()
            .filter(|c| **c == "clippy::disallowed_types")
            .count(),
        2,
        "both HashSet mentions on the line fire"
    );
    assert!(
        lints_at(&lints, blessed).is_empty(),
        "allow(clippy::disallowed_types) exempts the fn: {:?}",
        lints_at(&lints, blessed)
    );
    // FTL004 covered only some files; `clippy.toml` covers every crate,
    // the engine included.
    for krate in ["server", "engine"] {
        let lints = clippy_on(krate, &format!("hash_{krate}"), src);
        assert!(
            fires(&lints, "clippy::disallowed_types", map_line),
            "{krate}: HashMap named: {:?}",
            lints_at(&lints, map_line)
        );
    }
}

#[test]
fn obs_scope_gets_wide_lock_triggers_and_panic_and_hash_rules() {
    let src = r#"use std::collections::HashMap; // map-site
use std::sync::RwLock; // use-site

pub fn guarded(slot: &RwLock<u64>) -> u64 {
    *slot.read().unwrap() // read-site
}

pub fn bucket_of(counts: &[u64], i: usize) -> u64 {
    counts[i] // index-site
}

pub fn by_name(series: &HashMap<String, u64>) -> usize {
    series.len()
}
"#;
    let lints = clippy_on("obs", "obs_registry", src);
    let read_line = probe_line(src, "// read-site");
    assert!(fires(
        &lints,
        "clippy::disallowed_types",
        probe_line(src, "// use-site")
    ));
    // `.read()` on an `RwLock` is a lock in every crate: the methods
    // resolve by type, so only socket `.read()` stays silent.
    assert!(
        fires(&lints, "clippy::disallowed_methods", read_line),
        "`.read()` on an RwLock fires in ftl-obs: {:?}",
        lints_at(&lints, read_line)
    );
    let lock_msg = lints
        .iter()
        .find(|l| l.code == "clippy::disallowed_methods")
        .expect("lock call flagged");
    assert!(lock_msg.record.contains("lock-free"), "{}", lock_msg.record);
    assert!(fires(&lints, "clippy::unwrap_used", read_line));
    assert!(fires(
        &lints,
        "clippy::indexing_slicing",
        probe_line(src, "// index-site")
    ));
    assert!(fires(
        &lints,
        "clippy::disallowed_types",
        probe_line(src, "// map-site")
    ));
}

#[test]
fn real_tree_is_clean() {
    let root = repo_root();
    let files = walk_workspace(&root).expect("workspace walks");
    assert!(
        files.len() > 50,
        "expected the full workspace, got {}",
        files.len()
    );
    let findings = rules::run_all(&files);
    let rendered: Vec<String> = findings.iter().map(Finding::render).collect();
    assert!(
        findings.is_empty(),
        "real tree has findings:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn hot_set_is_nonempty_on_the_real_tree() {
    // The seeded hot-path annotations must actually attach — an analyzer
    // that silently finds zero hot functions enforces nothing.
    let files = walk_workspace(&repo_root()).expect("workspace walks");
    let hot: Vec<String> = files
        .iter()
        .flat_map(|f| f.functions.iter().filter(|g| g.hot).map(|g| g.name.clone()))
        .collect();
    assert!(
        hot.len() >= 8,
        "expected the seeded hot set (gf2 kernels, sketch toggles, store \
         accessors), found only: {hot:?}"
    );
    for expected in ["xor_into", "count_ones_and", "express_with", "vertex_anc"] {
        assert!(
            hot.iter().any(|n| n == expected),
            "missing hot fn {expected}"
        );
    }
}
