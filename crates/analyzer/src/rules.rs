//! The rule engine: four repo invariants over the modeled source tree.
//!
//! | rule | invariant |
//! |------|-----------|
//! | FTL001 | functions annotated `// ftl-analyzer: hot-path`, and every workspace function they transitively call, perform no heap allocation (`Vec::new`, `vec!`, `to_vec`, `collect`, `.clone()`, `Box::new`, `format!`, `String::from`) |
//! | FTL002 | `ftl-engine` holds no lock on the read path (`Mutex`/`RwLock`/`.lock()`/`.read()`/`.write()`) — only `epoch.rs`'s annotated writer side may; `ftl-server` and `ftl-chaos` locking (`Mutex`/`RwLock`/`.lock()`) is confined to annotated sites (`.read()`/`.write()` there are socket I/O); `ftl-obs` is lock-free outright (atomics only, wide trigger set, no blessed side) |
//! | FTL003 | `ftl-engine`/`ftl-labels`/`ftl-server`/`ftl-obs`/`ftl-chaos` non-test code never panics (`unwrap`/`expect`/`panic!`/`unreachable!`/slice-index-without-get) |
//! | FTL004 | label/store code hashes deterministically (no default-hasher `HashMap`/`HashSet`/`RandomState`; use `ftl_seeded::DetHashMap`) |
//!
//! Every check runs on lexed tokens (never raw text) and honors
//! `// ftl-analyzer: allow(<rule>)` exemptions recorded in the model.
//! Rule FTL003 carries a committed ratchet baseline for pre-existing debt;
//! the others hold at zero.

use crate::lexer::{Token, TokenKind};
use crate::model::{Function, RuleId, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which invariant.
    pub rule: RuleId,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// `path:line: FTL00x: message` — the CI-greppable form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}: {}",
            self.file,
            self.line,
            self.rule.code(),
            self.message
        )
    }
}

/// Long-form rule documentation for `--explain`.
pub fn explain(rule: RuleId) -> &'static str {
    match rule {
        RuleId::HotAlloc => {
            "FTL001 · no-alloc hot path\n\
             \n\
             Functions annotated `// ftl-analyzer: hot-path` (directly above the\n\
             fn, attributes in between are fine) and every workspace function\n\
             they transitively call must not allocate: Vec::new, vec!, to_vec,\n\
             collect, .clone(), Box::new, format!, and String::from are banned.\n\
             Arc::clone/Rc::clone (refcount bumps) are allowed. Arena reuse\n\
             (extend_from_slice, resize, copy_from) is the idiom instead.\n\
             \n\
             The seeded hot set: Engine::execute_grouped_into (the one serving\n\
             entry point) and its per-group loop execute_group, the sidecar\n\
             query path (answer, vertex_anc, the DecodedSidecar accessors),\n\
             EliminatedFaultSet's per-query checks, ftl-gf2's\n\
             xor_into/count_ones_and/express_with, and the sketch toggle\n\
             kernels.\n\
             \n\
             Exempt one call site with `// ftl-analyzer: allow(hot-alloc) why`\n\
             on the line above; that also stops call-graph traversal through it.\n\
             The runtime twin is the counting-allocator test\n\
             crates/engine/tests/alloc_free.rs."
        }
        RuleId::LockFree => {
            "FTL002 · lock-free read path\n\
             \n\
             ftl-engine must not name Mutex or RwLock, nor call .lock()/.read()\n\
             /.write(), anywhere outside the annotated writer side of epoch.rs.\n\
             Store reads are `&self` over frozen shards and epoch pinning is one\n\
             Arc clone; a lock on the serving path would let a slow writer stall\n\
             every reader.\n\
             \n\
             ftl-server is also in scope, with a narrower trigger set:\n\
             `Mutex`/`RwLock` mentions and `.lock()` calls (`.read()`/\n\
             `.write()` there are socket I/O, not locks). Its locking is\n\
             deliberate but concentrated: the poison-recovering `Slot`\n\
             wrapper in locked.rs, the batcher's window mutex/condvar, and\n\
             the per-connection writer slots, all annotated.\n\
             \n\
             ftl-chaos shares the server's narrow trigger set (its pumps\n\
             are socket `.read()`/`.write()` all over) with no blessed\n\
             side at all: the proxy coordinates through atomics, so any\n\
             `Mutex`/`RwLock`/`.lock()` mention there is a finding.\n\
             \n\
             ftl-obs gets the engine's wide trigger set with *no* blessed\n\
             side: the metrics record path is relaxed atomics only, so any\n\
             lock mention in crates/obs is a finding.\n\
             \n\
             The blessed exemptions carry\n\
             `// ftl-analyzer: allow(lock-free) why` — today that is the\n\
             EpochStore publication slot in crates/engine/src/epoch.rs plus\n\
             ftl-server's locked.rs/batcher.rs."
        }
        RuleId::PanicFree => {
            "FTL003 · panic-free serving\n\
             \n\
             Non-test code in ftl-engine, ftl-labels, ftl-server,\n\
             ftl-obs, and ftl-chaos must not\n\
             call .unwrap() or .expect(), must not invoke panic! or\n\
             unreachable!, and is\n\
             flagged for slice indexing (`x[i]`, `x[a..b]`) which panics out of\n\
             bounds — use .get()/.get_mut() or a match. Typed errors\n\
             (StoreError, WireError, EngineError, LiveStoreError) are the\n\
             serving-path alternative.\n\
             \n\
             Pre-existing debt is ratcheted: analyzer-baseline.toml records the\n\
             allowed per-file finding counts; --check fails only above the\n\
             baseline, and --check-baseline fails when the baseline is stale\n\
             (actual < allowed), so the debt can only shrink. Deliberate\n\
             panics (the chaos-injection hook) carry\n\
             `// ftl-analyzer: allow(panic-free) why`."
        }
        RuleId::DetHash => {
            "FTL004 · deterministic hashing\n\
             \n\
             Label/store code (ftl-labels, ftl-cycle-space, ftl-sketch,\n\
             ftl-server, ftl-obs, ftl-chaos, and the\n\
             engine's store.rs/cache.rs) must not use std's default-hasher\n\
             HashMap/HashSet (RandomState is keyed per process, so iteration\n\
             order — and anything derived from it, like sidecar placement or\n\
             eviction order — varies run to run). Use ftl_seeded::DetHashMap/\n\
             DetHashSet, which wrap the same SplitMix64 mixing the shard router\n\
             already relies on, behind a fixed key.\n\
             \n\
             clippy.toml's disallowed-types mirrors this workspace-wide for\n\
             explicit RandomState/Mutex/RwLock mentions."
        }
    }
}

/// Runs every rule over the modeled tree.
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        for (line, msg) in &f.annotation_errors {
            // Annotation typos are reported under the rule they tried to
            // touch conservatively as FTL001 (any rule would do — the point
            // is a non-zero exit).
            findings.push(Finding {
                rule: RuleId::HotAlloc,
                file: f.path.clone(),
                line: *line,
                message: format!("annotation error: {msg}"),
            });
        }
    }
    findings.extend(rule_hot_alloc(files));
    findings.extend(rule_lock_free(files));
    findings.extend(rule_panic_free(files));
    findings.extend(rule_det_hash(files));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

// ---------------------------------------------------------------- FTL001

/// Keywords that look like calls (`if x(...)` never happens, but `match`,
/// `return`, etc. can precede `(`).
const NON_CALL_IDENTS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "fn", "impl", "where", "pub", "use", "mod", "struct", "enum",
    "trait", "type", "const", "static", "crate", "self", "Self", "super", "dyn", "unsafe", "async",
    "await",
];

fn rule_hot_alloc(files: &[SourceFile]) -> Vec<Finding> {
    // Workspace function index by bare name (non-test fns only, so a test
    // helper named like a kernel can't drag test code into the closure).
    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        for (gi, g) in f.functions.iter().enumerate() {
            if !g.in_test && g.body_end > g.body_start {
                by_name.entry(&g.name).or_default().push((fi, gi));
            }
        }
    }
    // Transitive closure from the hot-annotated roots, remembering one
    // provenance hop for the diagnostics.
    let mut closure: BTreeMap<(usize, usize), Option<String>> = BTreeMap::new();
    let mut queue: Vec<(usize, usize)> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for (gi, g) in f.functions.iter().enumerate() {
            if g.hot {
                closure.insert((fi, gi), None);
                queue.push((fi, gi));
            }
        }
    }
    while let Some((fi, gi)) = queue.pop() {
        let file = &files[fi];
        let fun = &file.functions[gi];
        for callee_name in call_sites(file, fun, RuleId::HotAlloc) {
            if let Some(targets) = by_name.get(callee_name.as_str()) {
                for &(tfi, tgi) in targets {
                    if (tfi, tgi) != (fi, gi) && !closure.contains_key(&(tfi, tgi)) {
                        closure.insert((tfi, tgi), Some(format!("{} ({})", fun.name, file.path)));
                        queue.push((tfi, tgi));
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    for (&(fi, gi), via) in &closure {
        let file = &files[fi];
        let fun = &file.functions[gi];
        for (line, what) in banned_allocs(file, fun) {
            let provenance = match via {
                None => String::new(),
                Some(v) => format!(" (in hot closure via {v})"),
            };
            out.push(Finding {
                rule: RuleId::HotAlloc,
                file: file.path.clone(),
                line,
                message: format!(
                    "`{what}` allocates inside hot-path fn `{}`{provenance}",
                    fun.name
                ),
            });
        }
    }
    out
}

/// Bare names of functions called from `fun`'s body, skipping calls on
/// lines exempted for `rule` (an allow both excuses the line and cuts the
/// call-graph edge).
fn call_sites(file: &SourceFile, fun: &Function, rule: RuleId) -> BTreeSet<String> {
    let toks = &file.tokens[fun.body_start..fun.body_end];
    let mut out = BTreeSet::new();
    for (k, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if NON_CALL_IDENTS.contains(&name) {
            continue;
        }
        if file.is_allowed(rule, t.line) {
            continue;
        }
        // A call is `name (` or `name ::<` (turbofish); a method call is
        // `. name (` which the first shape already covers.
        let next = toks.get(k + 1);
        let is_call = match next {
            Some(n) if n.is_punct('(') => true,
            Some(n) if n.is_punct(':') => {
                toks.get(k + 2).is_some_and(|t2| t2.is_punct(':'))
                    && toks.get(k + 3).is_some_and(|t3| t3.is_punct('<'))
            }
            _ => false,
        };
        if !is_call {
            continue;
        }
        // Calls qualified through a *type* path (`Arc::clone(..)`,
        // `QueryResult::new(..)`) don't traverse by bare name: generic
        // constructor names like `new` would otherwise pull every
        // workspace `fn new` into the hot closure. `Self::helper(..)` and
        // lowercase module paths (`gf2::xor_into(..)`) still traverse, as
        // do method calls and free-fn calls.
        if k >= 3 && toks[k - 1].is_punct(':') && toks[k - 2].is_punct(':') {
            let head = toks[k - 3].ident();
            let type_qualified = head
                .is_some_and(|h| h != "Self" && h.chars().next().is_some_and(char::is_uppercase));
            if type_qualified {
                continue;
            }
        }
        out.insert(name.to_string());
    }
    out
}

/// Banned allocation constructs in `fun`'s body: `(line, what)` pairs.
fn banned_allocs(file: &SourceFile, fun: &Function) -> Vec<(u32, String)> {
    let toks = &file.tokens[fun.body_start..fun.body_end];
    let mut out = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if file.is_allowed(RuleId::HotAlloc, t.line) {
            continue;
        }
        let prev = k.checked_sub(1).and_then(|i| toks.get(i));
        let next = toks.get(k + 1);
        let what = match name {
            "vec" | "format" if next.is_some_and(|n| n.is_punct('!')) => Some(format!("{name}!")),
            "new" if path_prefix_is(toks, k, &["Vec", "Box"]) => {
                Some(format!("{}::new", path_head(toks, k)))
            }
            "from" if path_prefix_is(toks, k, &["String"]) => Some("String::from".into()),
            "to_vec" | "collect" | "clone"
                if prev.is_some_and(|p| p.is_punct('.'))
                    && next.is_some_and(|n| n.is_punct('(') || n.is_punct(':')) =>
            {
                Some(format!(".{name}()"))
            }
            _ => None,
        };
        if let Some(what) = what {
            out.push((t.line, what));
        }
    }
    out
}

/// Whether tokens `k-2`, `k-1` are `Head ::` with `Head` in `heads`.
fn path_prefix_is(toks: &[Token], k: usize, heads: &[&str]) -> bool {
    k >= 3
        && toks[k - 1].is_punct(':')
        && toks[k - 2].is_punct(':')
        && toks[k - 3].ident().is_some_and(|h| heads.contains(&h))
}

fn path_head(toks: &[Token], k: usize) -> &str {
    toks[k - 3].ident().unwrap_or("?")
}

// ---------------------------------------------------------------- FTL002

fn rule_lock_free(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    let scoped = files
        .iter()
        .filter(|f| matches!(f.crate_name.as_str(), "engine" | "server" | "obs" | "chaos"));
    for f in scoped {
        // `.read()`/`.write()` only count inside the engine and ftl-obs:
        // in ftl-server and ftl-chaos those are socket I/O (`Read`/`Write`
        // trait calls), not lock acquisition, so only `Mutex`/`RwLock` and
        // `.lock()` fire there. ftl-obs gets the wide trigger set — the
        // metrics record path is atomics-only by contract, with no
        // blessed writer side at all.
        let engine = matches!(f.crate_name.as_str(), "engine" | "obs");
        for (k, t) in f.tokens.iter().enumerate() {
            let Some(name) = t.ident() else { continue };
            if f.in_test_region(t.line) || f.is_allowed(RuleId::LockFree, t.line) {
                continue;
            }
            let is_method_call = || {
                let prev = k.checked_sub(1).and_then(|i| f.tokens.get(i));
                let next = f.tokens.get(k + 1);
                prev.is_some_and(|p| p.is_punct('.')) && next.is_some_and(|n| n.is_punct('('))
            };
            let hit = match name {
                "Mutex" | "RwLock" => Some(format!("`{name}`")),
                "lock" if is_method_call() => Some(format!("`.{name}()`")),
                "read" | "write" if engine && is_method_call() => Some(format!("`.{name}()`")),
                _ => None,
            };
            if let Some(what) = hit {
                let message = match f.crate_name.as_str() {
                    "engine" => format!(
                        "{what} on the engine read path — only epoch.rs's annotated \
                         writer side may hold a lock"
                    ),
                    "obs" => format!(
                        "{what} in ftl-obs — the metrics record path is atomics-only, \
                         with no blessed locking anywhere in the crate"
                    ),
                    "chaos" => format!(
                        "{what} in ftl-chaos — the proxy's pumps coordinate through \
                         atomics only, with no blessed locking anywhere in the crate"
                    ),
                    _ => format!(
                        "{what} in ftl-server outside the annotated `Slot` wrapper — \
                         concentrate locking in locked.rs and the batcher window"
                    ),
                };
                out.push(Finding {
                    rule: RuleId::LockFree,
                    file: f.path.clone(),
                    line: t.line,
                    message,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------- FTL003

fn rule_panic_free(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    let scoped = files.iter().filter(|f| {
        matches!(
            f.crate_name.as_str(),
            "engine" | "labels" | "server" | "obs" | "chaos"
        )
    });
    for f in scoped {
        for (k, t) in f.tokens.iter().enumerate() {
            if f.in_test_region(t.line) || f.is_allowed(RuleId::PanicFree, t.line) {
                continue;
            }
            let prev = k.checked_sub(1).and_then(|i| f.tokens.get(i));
            let next = f.tokens.get(k + 1);
            let hit = match &t.kind {
                TokenKind::Ident(name) => match name.as_str() {
                    "unwrap" | "expect"
                        if prev.is_some_and(|p| p.is_punct('.'))
                            && next.is_some_and(|n| n.is_punct('(')) =>
                    {
                        Some(format!("`.{name}()` can panic — return a typed error"))
                    }
                    "panic" | "unreachable" if next.is_some_and(|n| n.is_punct('!')) => {
                        Some(format!("`{name}!` on the serving path"))
                    }
                    _ => None,
                },
                TokenKind::Punct('[') => {
                    // Slice-index heuristic: `[` directly after a value
                    // (identifier, `)`, or `]`) is an index expression,
                    // which panics out of bounds. `vec![`, `#[attr]`, and
                    // type positions don't match.
                    let indexes = prev.is_some_and(|p| {
                        matches!(p.kind, TokenKind::Ident(_))
                            && p.ident().is_none_or(|s| !NON_CALL_IDENTS.contains(&s))
                            || p.is_punct(')')
                            || p.is_punct(']')
                    });
                    if indexes {
                        Some("slice index can panic — prefer `.get()`".to_string())
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(message) = hit {
                out.push(Finding {
                    rule: RuleId::PanicFree,
                    file: f.path.clone(),
                    line: t.line,
                    message,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------- FTL004

/// Whether FTL004 (deterministic hashing) covers this file: all label
/// crates, the server (per-tenant stats keyed by id), the obs registry
/// (a stray map there would sit under the same serving path), the chaos
/// proxy (a map in plan drawing would make storms unreplayable), plus
/// the engine's store and cache.
fn det_hash_scope(f: &SourceFile) -> bool {
    match f.crate_name.as_str() {
        "labels" | "cycle-space" | "sketch" | "server" | "obs" | "chaos" => true,
        "engine" => f.path.ends_with("store.rs") || f.path.ends_with("cache.rs"),
        _ => false,
    }
}

fn rule_det_hash(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files.iter().filter(|f| det_hash_scope(f)) {
        for t in &f.tokens {
            let Some(name) = t.ident() else { continue };
            if !matches!(name, "HashMap" | "HashSet" | "RandomState") {
                continue;
            }
            if f.in_test_region(t.line) || f.is_allowed(RuleId::DetHash, t.line) {
                continue;
            }
            out.push(Finding {
                rule: RuleId::DetHash,
                file: f.path.clone(),
                line: t.line,
                message: format!(
                    "default-hasher `{name}` in label/store code — iteration order \
                     must be deterministic; use ftl_seeded::DetHashMap/DetHashSet"
                ),
            });
        }
    }
    out
}
