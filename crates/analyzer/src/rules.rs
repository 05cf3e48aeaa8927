//! The rule engine: two repo invariants clippy cannot express.
//!
//! | rule | invariant |
//! |------|-----------|
//! | FTL001 | functions annotated `// ftl-analyzer: hot-path`, and every workspace function they transitively call, perform no heap allocation (`Vec::new`, `vec!`, `to_vec`, `collect`, `.clone()`, `Box::new`, `format!`, `String::from`) |
//! | FTL003 | `ftl-engine`/`ftl-labels`/`ftl-server`/`ftl-obs`/`ftl-chaos` non-test code never indexes a map (`map[&k]`, which panics on a missing key) |
//!
//! Every other serving-path invariant (no unwrap/expect/panic, no slice or
//! string indexing, no locks, deterministic hashing) is a clippy lint; see
//! `docs/static-analysis.md`. Every check runs on lexed tokens (never raw
//! text) and honors `// ftl-analyzer: allow(<rule>)` exemptions recorded in
//! the model.

use crate::lexer::Token;
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
             entry point) and its per-group loop execute_group, the store\n\
             query path (answer, vertex_anc, the LabelStore column accessors),\n\
             EliminatedFaultSet's per-query checks, ftl-gf2's\n\
             xor_into/count_ones_and/express_with, and the sketch toggle\n\
             kernels.\n\
             \n\
             Exempt one call site with `// ftl-analyzer: allow(hot-alloc) why`\n\
             on the line above; that also stops call-graph traversal through it.\n\
             The runtime twin is the counting-allocator test\n\
             crates/engine/tests/alloc_free.rs."
        }
        RuleId::PanicFree => {
            "FTL003 · panic-free map lookups\n\
             \n\
             Non-test code in ftl-engine, ftl-labels, ftl-server, ftl-obs and\n\
             ftl-chaos must not index a map: `map[&k]` panics when the key is\n\
             missing. Use .get(&k) and handle the miss. The rule fires on an\n\
             index expression whose bracket opens with `&` (slices never take\n\
             `&` indices).\n\
             \n\
             The rest of panic-free serving is clippy's: unwrap_used,\n\
             expect_used, panic, unreachable, indexing_slicing, string_slice\n\
             and panic_in_result_fn are denied in those five crates' manifests.\n\
             No clippy lint sees std map indexing, so this clause stays here.\n\
             \n\
             Exempt a deliberate site with\n\
             `// ftl-analyzer: allow(panic-free) why` on the line above."
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
    findings.extend(rule_panic_free(files));
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
            if !t.is_punct('[')
                || f.in_test_region(t.line)
                || f.is_allowed(RuleId::PanicFree, t.line)
            {
                continue;
            }
            // An index expression is `[` directly after a value
            // (identifier, `)`, `]`, or a `?` that unwraps one); `vec![`,
            // `#[attr]`, array literals and type positions don't match.
            // Only a map takes a `&` index, so `x[&k]` is a map lookup
            // that panics on a missing key.
            let prev = k.checked_sub(1).and_then(|i| f.tokens.get(i));
            let indexes = prev.is_some_and(|p| {
                p.ident().is_some_and(|s| !NON_CALL_IDENTS.contains(&s))
                    || p.is_punct(')')
                    || p.is_punct(']')
                    || p.is_punct('?')
            });
            if indexes && f.tokens.get(k + 1).is_some_and(|n| n.is_punct('&')) {
                out.push(Finding {
                    rule: RuleId::PanicFree,
                    file: f.path.clone(),
                    line: t.line,
                    message: "map index `[&k]` panics on a missing key — use `.get(&k)`"
                        .to_string(),
                });
            }
        }
    }
    out
}
