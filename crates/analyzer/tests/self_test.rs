//! Analyzer self-tests: every rule fires on the bad-corpus fixtures, the
//! exemptions hold, and the real workspace tree is clean modulo the
//! committed ratchet baseline.

use ftl_analyzer::model::RuleId;
use ftl_analyzer::rules::Finding;
use ftl_analyzer::{baseline, rules, walk_workspace};
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

#[test]
fn ftl001_fires_on_hot_fn_and_transitive_callee_only() {
    let findings = fixture_findings();
    let direct = line_of("crates/engine/src/lib.rs", "Vec::new()");
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
fn ftl002_fires_on_mutex_and_lock_calls_in_engine_and_server() {
    let findings = fixture_findings();
    let use_line = line_of("crates/engine/src/lib.rs", "use std::sync::Mutex");
    let lock_line = line_of("crates/engine/src/lib.rs", "m.lock()");
    assert!(has(
        &findings,
        RuleId::LockFree,
        "engine/src/lib.rs",
        use_line
    ));
    assert!(has(
        &findings,
        RuleId::LockFree,
        "engine/src/lib.rs",
        lock_line
    ));
    assert!(
        !findings
            .iter()
            .any(|f| f.rule == RuleId::LockFree && f.file.contains("labels")),
        "FTL002 never covers labels"
    );
}

#[test]
fn ftl002_server_scope_flags_locks_but_not_socket_read_write() {
    let findings = fixture_findings();
    let use_line = line_of("crates/server/src/net.rs", "use std::sync::Mutex");
    let lock_line = line_of("crates/server/src/net.rs", "m.lock().expect");
    let read_line = line_of("crates/server/src/net.rs", "socket-read-site");
    let write_line = line_of("crates/server/src/net.rs", "socket-write-site");
    let blessed = line_of("crates/server/src/net.rs", "m.lock().map");
    assert!(has(
        &findings,
        RuleId::LockFree,
        "server/src/net.rs",
        use_line
    ));
    assert!(has(
        &findings,
        RuleId::LockFree,
        "server/src/net.rs",
        lock_line
    ));
    assert!(
        !has(&findings, RuleId::LockFree, "server/src/net.rs", read_line),
        "`.read()` in ftl-server is socket I/O, not a lock"
    );
    assert!(
        !has(&findings, RuleId::LockFree, "server/src/net.rs", write_line),
        "`.write()` in ftl-server is socket I/O, not a lock"
    );
    assert!(
        !has(&findings, RuleId::LockFree, "server/src/net.rs", blessed),
        "fn-level allow(lock-free) exempts the slot-style wrapper"
    );
}

#[test]
fn chaos_scope_gets_narrow_lock_triggers_and_panic_and_hash_rules() {
    let findings = fixture_findings();
    let use_lock = line_of("crates/chaos/src/net.rs", "use std::sync::Mutex");
    let lock_line = line_of("crates/chaos/src/net.rs", "m.lock().expect");
    let read_line = line_of("crates/chaos/src/net.rs", "pump-read-site");
    let write_line = line_of("crates/chaos/src/net.rs", "pump-write-site");
    let index_line = line_of("crates/chaos/src/net.rs", "garbage[i]");
    let use_map = line_of("crates/chaos/src/net.rs", "use std::collections::HashMap");
    // FTL002 with the server's narrow trigger set, and the chaos-specific
    // no-blessed-side message.
    assert!(has(
        &findings,
        RuleId::LockFree,
        "chaos/src/net.rs",
        use_lock
    ));
    assert!(has(
        &findings,
        RuleId::LockFree,
        "chaos/src/net.rs",
        lock_line
    ));
    assert!(
        !has(&findings, RuleId::LockFree, "chaos/src/net.rs", read_line),
        "`.read()` in ftl-chaos is pump socket I/O, not a lock"
    );
    assert!(
        !has(&findings, RuleId::LockFree, "chaos/src/net.rs", write_line),
        "`.write()` in ftl-chaos is pump socket I/O, not a lock"
    );
    let lock_msg = findings
        .iter()
        .find(|f| f.rule == RuleId::LockFree && f.file.contains("chaos/src/net.rs"))
        .unwrap();
    assert!(
        lock_msg.message.contains("ftl-chaos"),
        "{}",
        lock_msg.message
    );
    // FTL003 and FTL004 cover the crate like the other serving crates.
    assert!(has(
        &findings,
        RuleId::PanicFree,
        "chaos/src/net.rs",
        lock_line
    ));
    assert!(has(
        &findings,
        RuleId::PanicFree,
        "chaos/src/net.rs",
        index_line
    ));
    assert!(has(&findings, RuleId::DetHash, "chaos/src/net.rs", use_map));
}

#[test]
fn ftl003_fires_on_unwrap_panic_and_index_but_honors_allow_and_tests() {
    let findings = fixture_findings();
    let unwrap = line_of("crates/engine/src/lib.rs", "m.lock().unwrap()");
    let panic = line_of("crates/engine/src/lib.rs", "panic!(\"empty\")");
    let index = line_of("crates/engine/src/lib.rs", "xs[i]");
    let blessed = line_of("crates/engine/src/lib.rs", "unreachable!(\"never\")");
    let expect = line_of("crates/labels/src/store.rs", ".expect(\"present\")");
    let test_unwrap = line_of("crates/labels/src/store.rs", "v.unwrap()");
    assert!(has(
        &findings,
        RuleId::PanicFree,
        "engine/src/lib.rs",
        unwrap
    ));
    assert!(has(
        &findings,
        RuleId::PanicFree,
        "engine/src/lib.rs",
        panic
    ));
    assert!(has(
        &findings,
        RuleId::PanicFree,
        "engine/src/lib.rs",
        index
    ));
    assert!(has(
        &findings,
        RuleId::PanicFree,
        "labels/src/store.rs",
        expect
    ));
    assert!(
        !has(&findings, RuleId::PanicFree, "engine/src/lib.rs", blessed),
        "fn-level allow(panic-free) exempts the whole body"
    );
    assert!(
        !has(
            &findings,
            RuleId::PanicFree,
            "labels/src/store.rs",
            test_unwrap
        ),
        "cfg(test) regions are out of scope"
    );
    // The server crate is in FTL003 scope too.
    let server_expect = line_of("crates/server/src/net.rs", "m.lock().expect");
    let server_index = line_of("crates/server/src/net.rs", "answers[i]");
    assert!(has(
        &findings,
        RuleId::PanicFree,
        "server/src/net.rs",
        server_expect
    ));
    assert!(has(
        &findings,
        RuleId::PanicFree,
        "server/src/net.rs",
        server_index
    ));
}

#[test]
fn ftl004_fires_on_default_hasher_maps_and_honors_allow() {
    let findings = fixture_findings();
    let use_map = line_of(
        "crates/labels/src/store.rs",
        "use std::collections::HashMap",
    );
    let set_line = line_of("crates/labels/src/store.rs", "HashSet::new()");
    let blessed = line_of("crates/labels/src/store.rs", "pub fn blessed");
    assert!(has(
        &findings,
        RuleId::DetHash,
        "labels/src/store.rs",
        use_map
    ));
    assert!(has(
        &findings,
        RuleId::DetHash,
        "labels/src/store.rs",
        set_line
    ));
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == RuleId::DetHash && f.line == set_line)
            .count(),
        2,
        "both HashSet mentions on the line fire"
    );
    assert!(
        !has(&findings, RuleId::DetHash, "labels/src/store.rs", blessed),
        "allow(det-hash) exempts the fn"
    );
    // FTL004 never fires in the engine fixture (lib.rs is not store/cache).
    assert!(
        !findings
            .iter()
            .any(|f| f.rule == RuleId::DetHash && f.file.contains("engine")),
        "FTL004 scope excludes engine files other than store.rs/cache.rs"
    );
    // The server crate (per-tenant stats keyed by id) is in scope.
    let server_map = line_of("crates/server/src/net.rs", "use std::collections::HashMap");
    assert!(has(
        &findings,
        RuleId::DetHash,
        "server/src/net.rs",
        server_map
    ));
}

#[test]
fn obs_scope_gets_wide_lock_triggers_and_panic_and_hash_rules() {
    let findings = fixture_findings();
    let use_lock = line_of("crates/obs/src/registry.rs", "use std::sync::RwLock");
    let read_line = line_of("crates/obs/src/registry.rs", "slot.read().unwrap()");
    let index_line = line_of("crates/obs/src/registry.rs", "counts[i]");
    let use_map = line_of(
        "crates/obs/src/registry.rs",
        "use std::collections::HashMap",
    );
    // FTL002 with the engine's wide trigger set: both the `RwLock`
    // mention and the `.read()` call fire (in ftl-server `.read()` would
    // be socket I/O and stay silent).
    assert!(has(
        &findings,
        RuleId::LockFree,
        "obs/src/registry.rs",
        use_lock
    ));
    assert!(
        has(
            &findings,
            RuleId::LockFree,
            "obs/src/registry.rs",
            read_line
        ),
        "`.read()` fires in ftl-obs — wide triggers, no blessed side"
    );
    let lock_msg = findings
        .iter()
        .find(|f| f.rule == RuleId::LockFree && f.file.contains("obs/src/registry.rs"))
        .unwrap();
    assert!(
        lock_msg.message.contains("atomics-only"),
        "{}",
        lock_msg.message
    );
    // FTL003 and FTL004 cover the crate like the other serving crates.
    assert!(has(
        &findings,
        RuleId::PanicFree,
        "obs/src/registry.rs",
        read_line
    ));
    assert!(has(
        &findings,
        RuleId::PanicFree,
        "obs/src/registry.rs",
        index_line
    ));
    assert!(has(
        &findings,
        RuleId::DetHash,
        "obs/src/registry.rs",
        use_map
    ));
}

#[test]
fn annotation_errors_fire_and_cannot_be_baselined() {
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
    // Even an absurdly generous baseline does not absorb them.
    let generous = vec![baseline::Entry {
        rule: RuleId::HotAlloc,
        file: errors[0].file.clone(),
        count: 1000,
    }];
    let applied = baseline::apply(&findings, &generous);
    assert!(applied
        .violations
        .iter()
        .any(|f| f.file.ends_with("typo.rs")));
}

#[test]
fn banned_names_in_strings_and_comments_never_fire() {
    let findings = fixture_findings();
    let line = line_of("crates/engine/src/lib.rs", "just a comment");
    let lit = line_of("crates/engine/src/lib.rs", "\"Mutex .lock()");
    assert!(findings
        .iter()
        .filter(|f| f.file.ends_with("engine/src/lib.rs"))
        .all(|f| f.line != line && f.line != lit));
}

#[test]
fn real_tree_is_clean_modulo_committed_baseline() {
    let root = repo_root();
    let files = walk_workspace(&root).expect("workspace walks");
    assert!(
        files.len() > 50,
        "expected the full workspace, got {}",
        files.len()
    );
    let findings = rules::run_all(&files);
    let text = std::fs::read_to_string(root.join("analyzer-baseline.toml"))
        .expect("committed baseline exists");
    let entries = baseline::parse(&text).expect("baseline parses");
    let applied = baseline::apply(&findings, &entries);
    let rendered: Vec<String> = applied.violations.iter().map(Finding::render).collect();
    assert!(
        applied.violations.is_empty(),
        "real tree has findings above baseline:\n{}",
        rendered.join("\n")
    );
    // And the ratchet is fresh: no over-generous entries.
    let stale = baseline::staleness(&findings, &entries);
    assert!(stale.is_empty(), "stale baseline:\n{}", stale.join("\n"));
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
