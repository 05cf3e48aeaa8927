//! The source model: brace-scoped functions, `#[cfg(test)]` regions, and
//! `// ftl-analyzer:` annotations, built from one file's token stream.

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// One function's extent in a file.
#[derive(Debug, Clone)]
pub struct Function {
    /// The function's bare name (no path, no generics).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub sig_line: u32,
    /// Token index of the `fn` keyword.
    pub sig_tok: usize,
    /// Token index of the body's opening `{` (== `body_end` for bodyless
    /// trait declarations).
    pub body_start: usize,
    /// Token index one past the body's closing `}`.
    pub body_end: usize,
    /// Last line of the body.
    pub end_line: u32,
    /// Whether the function lives inside a `#[cfg(test)]` region or is
    /// itself `#[test]`-attributed.
    pub in_test: bool,
    /// Whether a `// ftl-analyzer: hot-path` annotation marks it.
    pub hot: bool,
}

/// Which analyzer rule an `allow(...)` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// FTL001 — no-alloc hot path.
    HotAlloc,
    /// FTL003 — panic-free map lookups.
    PanicFree,
}

impl RuleId {
    /// `FTL00x` code.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::HotAlloc => "FTL001",
            RuleId::PanicFree => "FTL003",
        }
    }

    /// The annotation key used in `// ftl-analyzer: allow(<key>)`.
    pub fn key(self) -> &'static str {
        match self {
            RuleId::HotAlloc => "hot-alloc",
            RuleId::PanicFree => "panic-free",
        }
    }

    /// Parses an annotation key.
    pub fn from_key(key: &str) -> Option<RuleId> {
        match key {
            "hot-alloc" => Some(RuleId::HotAlloc),
            "panic-free" => Some(RuleId::PanicFree),
            _ => None,
        }
    }

    /// All rules, in code order.
    pub const ALL: [RuleId; 2] = [RuleId::HotAlloc, RuleId::PanicFree];

    /// Parses an `FTL00x` code.
    pub fn from_code(code: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.code() == code)
    }
}

/// The analyzed model of one source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path, `/`-separated (stable across platforms).
    pub path: String,
    /// The crate directory name (`engine` for `crates/engine/src/...`).
    pub crate_name: String,
    /// Code tokens.
    pub tokens: Vec<Token>,
    /// Functions, in source order.
    pub functions: Vec<Function>,
    /// Per-rule sets of lines exempted by `allow(...)` annotations.
    pub allowed_lines: BTreeMap<RuleId, BTreeSet<u32>>,
    /// Line ranges (inclusive) of `#[cfg(test)]` regions.
    pub test_ranges: Vec<(u32, u32)>,
    /// Annotation problems (unknown rule keys, dangling hot-path markers) —
    /// surfaced as findings so typos cannot silently disable a rule.
    pub annotation_errors: Vec<(u32, String)>,
}

impl SourceFile {
    /// Lexes and models `src`.
    pub fn parse(path: String, crate_name: String, src: &str) -> SourceFile {
        let lexed = lex(src);
        let mut file = SourceFile {
            path,
            crate_name,
            functions: Vec::new(),
            allowed_lines: BTreeMap::new(),
            test_ranges: Vec::new(),
            annotation_errors: Vec::new(),
            tokens: Vec::new(),
        };
        file.test_ranges = test_ranges(&lexed.tokens);
        file.functions = find_functions(&lexed.tokens, &file.test_ranges);
        file.apply_annotations(&lexed);
        file.tokens = lexed.tokens;
        file
    }

    /// Whether `line` is inside a `#[cfg(test)]` region.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// Whether `line` is exempted from `rule` by an allow annotation.
    pub fn is_allowed(&self, rule: RuleId, line: u32) -> bool {
        self.allowed_lines
            .get(&rule)
            .is_some_and(|s| s.contains(&line))
    }

    /// The innermost function containing `tok` (token index), if any.
    pub fn enclosing_function(&self, tok: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, f) in self.functions.iter().enumerate() {
            if f.body_start <= tok && tok < f.body_end {
                let better = match best {
                    None => true,
                    // Innermost = smallest span containing the token.
                    Some(j) => {
                        (f.body_end - f.body_start)
                            < (self.functions[j].body_end - self.functions[j].body_start)
                    }
                };
                if better {
                    best = Some(i);
                }
            }
        }
        best
    }

    /// Attaches `hot-path` / `allow(...)` comment annotations.
    fn apply_annotations(&mut self, lexed: &Lexed) {
        // Line classification for "the next code line" resolution:
        // attribute-only lines (starting with `#`) are transparent, so an
        // allow can sit above `#[allow(clippy::...)]` and still reach the
        // code below it.
        let mut first_tok_on_line: BTreeMap<u32, &Token> = BTreeMap::new();
        for t in &lexed.tokens {
            first_tok_on_line.entry(t.line).or_insert(t);
        }
        for c in &lexed.comments {
            let Some(directive) = annotation_text(c) else {
                continue;
            };
            if directive == "hot-path" {
                if !self.mark_next_fn_hot(c.line) {
                    self.annotation_errors.push((
                        c.line,
                        "dangling `ftl-analyzer: hot-path` (no fn follows within 8 lines)"
                            .to_string(),
                    ));
                }
            } else if let Some(rest) = directive.strip_prefix("allow(") {
                let Some(end) = rest.find(')') else {
                    self.annotation_errors
                        .push((c.line, format!("malformed allow annotation: `{directive}`")));
                    continue;
                };
                let key = &rest[..end];
                let Some(rule) = RuleId::from_key(key) else {
                    self.annotation_errors.push((
                        c.line,
                        format!(
                            "unknown rule `{key}` in allow (expected one of: \
                             hot-alloc, panic-free)"
                        ),
                    ));
                    continue;
                };
                let lines = self.allowed_lines.entry(rule).or_default();
                lines.insert(c.line);
                // The next line bearing code, looking through attribute-only
                // lines, is exempted; if that line opens a fn, the whole fn
                // body is.
                let mut target = None;
                for (&line, tok) in first_tok_on_line.range(c.line + 1..c.line + 9) {
                    if tok.kind == TokenKind::Punct('#') {
                        continue; // attribute line
                    }
                    target = Some(line);
                    break;
                }
                if let Some(line) = target {
                    lines.insert(line);
                    if let Some(f) = self.functions.iter().find(|f| f.sig_line == line) {
                        for l in f.sig_line..=f.end_line {
                            lines.insert(l);
                        }
                    }
                }
            } else {
                self.annotation_errors.push((
                    c.line,
                    format!("unknown ftl-analyzer directive: `{directive}`"),
                ));
            }
        }
    }

    /// Marks the nearest following fn (within 8 lines) hot. Returns whether
    /// one was found.
    fn mark_next_fn_hot(&mut self, line: u32) -> bool {
        if let Some(f) = self
            .functions
            .iter_mut()
            .filter(|f| f.sig_line > line && f.sig_line <= line + 8)
            .min_by_key(|f| f.sig_line)
        {
            f.hot = true;
            true
        } else {
            false
        }
    }
}

/// Extracts the directive from an `// ftl-analyzer: ...` comment.
fn annotation_text(c: &Comment) -> Option<String> {
    let rest = c.text.strip_prefix("ftl-analyzer:")?;
    Some(rest.trim().to_string())
}

/// Line ranges covered by `#[cfg(test)]` items.
fn test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // The attribute's item is the next brace block (a `mod tests {`
            // or a cfg-gated fn); a `;` first means a bodyless item — treat
            // the lines up to the `;` as the region.
            let start_line = tokens[i].line;
            let mut j = i + 7; // at/after the end of `#[cfg(test)]`
            let mut next_i = i + 1;
            let mut region = None;
            while j < tokens.len() {
                if tokens[j].is_punct(';') {
                    region = Some((start_line, tokens[j].line));
                    next_i = j + 1;
                    break;
                }
                if tokens[j].is_punct('{') {
                    let end = match_brace(tokens, j);
                    let end_line = tokens
                        .get(end.saturating_sub(1))
                        .map_or(start_line, |t| t.line);
                    region = Some((start_line, end_line));
                    next_i = end;
                    break;
                }
                j += 1;
            }
            if let Some(r) = region {
                out.push(r);
            }
            i = next_i.max(i + 1);
        } else {
            i += 1;
        }
    }
    out
}

/// Whether `#[cfg(test)]` (or `#[cfg(all(test, ...))]` etc. — anything with
/// a bare `test` inside the cfg) starts at token `i`.
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    if !(tokens.get(i).is_some_and(|t| t.is_punct('#'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
        && tokens.get(i + 2).and_then(Token::ident) == Some("cfg")
        && tokens.get(i + 3).is_some_and(|t| t.is_punct('(')))
    {
        return false;
    }
    // Scan the attribute's argument for a bare `test` ident.
    let mut depth = 0usize;
    let mut j = i + 3;
    while j < tokens.len() {
        if tokens[j].is_punct('(') {
            depth += 1;
        } else if tokens[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if tokens[j].ident() == Some("test") {
            return true;
        }
        j += 1;
    }
    false
}

/// Index one past the `}` matching the `{` at `open`.
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct('{') {
            depth += 1;
        } else if tokens[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// All functions with their brace-scoped extents.
fn find_functions(tokens: &[Token], test_ranges: &[(u32, u32)]) -> Vec<Function> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].ident() == Some("fn") {
            let sig_tok = i;
            let sig_line = tokens[i].line;
            let Some(name) = tokens.get(i + 1).and_then(Token::ident) else {
                i += 1;
                continue; // `fn` in `Fn()` trait sugar or stray
            };
            // Find the body's `{`, stopping at `;` (trait declaration).
            // Angle-bracket depth is ignored on purpose: return types and
            // bounds never contain a bare `{`/`;` outside braces we care
            // about.
            let mut j = i + 2;
            let mut body = None;
            while j < tokens.len() {
                if tokens[j].is_punct(';') {
                    break;
                }
                if tokens[j].is_punct('{') {
                    body = Some(j);
                    break;
                }
                j += 1;
            }
            let (body_start, body_end) = match body {
                Some(open) => (open, match_brace(tokens, open)),
                None => (j, j),
            };
            let end_line = tokens
                .get(body_end.saturating_sub(1))
                .map_or(sig_line, |t| t.line);
            let marked_test = has_test_attr(tokens, sig_tok);
            let in_region = test_ranges
                .iter()
                .any(|&(a, b)| a <= sig_line && sig_line <= b);
            out.push(Function {
                name: name.to_string(),
                sig_line,
                sig_tok,
                body_start,
                body_end,
                end_line,
                in_test: marked_test || in_region,
                hot: false,
            });
            // Continue *inside* the body too: nested fns are real fns.
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// Whether a `#[test]`-like attribute (`#[test]`, `#[bench]`) directly
/// precedes the `fn` at token `sig_tok`, looking back through other
/// attributes and visibility/qualifier keywords.
fn has_test_attr(tokens: &[Token], sig_tok: usize) -> bool {
    // Walk backwards over up to ~40 tokens of attributes/qualifiers.
    let start = sig_tok.saturating_sub(40);
    let mut i = sig_tok;
    while i > start {
        i -= 1;
        if tokens[i].is_punct(']') {
            // find the matching `[` then check the attribute head
            let mut depth = 1usize;
            let mut j = i;
            while j > 0 && depth > 0 {
                j -= 1;
                if tokens[j].is_punct(']') {
                    depth += 1;
                } else if tokens[j].is_punct('[') {
                    depth -= 1;
                }
            }
            let head = tokens.get(j + 1).and_then(Token::ident);
            if head == Some("test") || head == Some("bench") {
                return true;
            }
            if j == 0 || !tokens[j - 1].is_punct('#') {
                return false;
            }
            i = j.saturating_sub(1);
        } else if matches!(
            tokens[i].ident(),
            Some("pub" | "const" | "async" | "unsafe" | "extern") | None
        ) && !tokens[i].is_punct('}')
            && !tokens[i].is_punct(';')
        {
            continue;
        } else {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs".into(), "x".into(), src)
    }

    #[test]
    fn functions_get_extents_and_names() {
        let m = model("fn a() { inner(); }\npub fn b<T: Clone>(t: T) -> T {\n  t\n}\n");
        let names: Vec<_> = m.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(m.functions[1].sig_line, 2);
        assert_eq!(m.functions[1].end_line, 4);
    }

    #[test]
    fn cfg_test_mod_is_a_test_region() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n  #[test]\n  fn t() {}\n}\n";
        let m = model(src);
        assert!(!m.functions[0].in_test);
        assert!(m.functions[1].in_test, "helper inside cfg(test) mod");
        assert!(m.functions[2].in_test);
        assert!(m.in_test_region(4));
        assert!(!m.in_test_region(1));
    }

    #[test]
    fn hot_path_annotation_attaches_through_attributes() {
        let src = "// ftl-analyzer: hot-path\n#[inline]\npub fn kernel(x: u64) -> u64 { x }\nfn cold() {}\n";
        let m = model(src);
        assert!(m.functions[0].hot);
        assert!(!m.functions[1].hot);
        assert!(m.annotation_errors.is_empty());
    }

    #[test]
    fn allow_exempts_next_code_line_and_whole_fn() {
        let src = "\
// ftl-analyzer: allow(panic-free) reason here
#[allow(clippy::unwrap_used)]
fn blessed() {
    foo.unwrap();
}
fn other() {}
";
        let m = model(src);
        assert!(m.is_allowed(RuleId::PanicFree, 4), "whole fn exempted");
        assert!(!m.is_allowed(RuleId::PanicFree, 6));
        assert!(!m.is_allowed(RuleId::HotAlloc, 4), "only the named rule");
    }

    #[test]
    fn unknown_rule_key_is_an_error_not_a_silent_noop() {
        let m = model("// ftl-analyzer: allow(no-such-rule) oops\nfn f() {}\n");
        assert_eq!(m.annotation_errors.len(), 1);
        assert!(m.annotation_errors[0].1.contains("no-such-rule"));
    }

    #[test]
    fn dangling_hot_path_is_reported() {
        let m = model("// ftl-analyzer: hot-path\nconst X: u32 = 1;\n");
        assert_eq!(m.annotation_errors.len(), 1);
    }

    #[test]
    fn enclosing_function_picks_innermost() {
        let src = "fn outer() {\n fn inner() { body(); }\n}\n";
        let m = model(src);
        let body_tok = m
            .tokens
            .iter()
            .position(|t| t.ident() == Some("body"))
            .unwrap();
        let idx = m.enclosing_function(body_tok).unwrap();
        assert_eq!(m.functions[idx].name, "inner");
    }
}
