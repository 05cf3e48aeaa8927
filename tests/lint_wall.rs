//! The clippy wall under test: `clippy.toml` and the five serving crates'
//! manifests still carry every entry, and live probes show the lints fire
//! where they should. Each probe is a small crate that carries one serving
//! crate's `[lints]` tables and goes through `cargo clippy -- -D warnings`
//! under the workspace `clippy.toml`, so a wall that stops catching a case
//! fails here. These tests need `cargo clippy` installed.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()
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
