//! The `ftl-analyzer` CLI.
//!
//! ```text
//! cargo run -p ftl-analyzer -- --check            # enforce both rules (CI)
//! cargo run -p ftl-analyzer -- --explain FTL003   # long-form rule documentation
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.
//! Diagnostics print as `path:line: FTL00x: message`, one per line, so CI
//! logs and editors can jump straight to the site.

use ftl_analyzer::model::RuleId;
use ftl_analyzer::rules;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    explain: Option<String>,
}

const USAGE: &str = "\
ftl-analyzer — repo-invariant static analysis for the ftl workspace

USAGE:
    cargo run -p ftl-analyzer -- [MODE] [OPTIONS]

MODES (default: --check):
    --check             run all rules; fail on any finding
    --explain FTL00x    print the long-form documentation for one rule

OPTIONS:
    --root PATH         workspace root (default: nearest ancestor with crates/)

RULES:
    FTL001  no-alloc hot path       FTL003  panic-free map lookups
";

fn parse_args() -> Result<Args, String> {
    let mut root = None;
    let mut explain = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => {}
            "--explain" => {
                explain = Some(
                    it.next()
                        .ok_or_else(|| "--explain needs a rule code (e.g. FTL001)".to_string())?,
                );
            }
            "--root" => {
                root = Some(PathBuf::from(
                    it.next().ok_or_else(|| "--root needs a path".to_string())?,
                ));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => discover_root()?,
    };
    Ok(Args { root, explain })
}

/// Walks up from the current directory to the nearest ancestor containing
/// a `crates/` directory (the workspace root, whether invoked from the
/// root or from inside a crate).
fn discover_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let mut dir: &Path = &cwd;
    loop {
        if dir.join("crates").is_dir() {
            return Ok(dir.to_path_buf());
        }
        match dir.parent() {
            Some(p) => dir = p,
            None => {
                return Err(format!(
                    "no workspace root (directory with crates/) above {}",
                    cwd.display()
                ))
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(code) = &args.explain {
        return match RuleId::from_code(code) {
            Some(rule) => {
                println!("{}", rules::explain(rule));
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("error: unknown rule `{code}` (expected FTL001 or FTL003)");
                ExitCode::from(2)
            }
        };
    }

    let files = match ftl_analyzer::walk_workspace(&args.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: walking {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
    let findings = rules::run_all(&files);
    for f in &findings {
        println!("{}", f.render());
    }
    println!(
        "ftl-analyzer: {} file(s), {} finding(s)",
        files.len(),
        findings.len()
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        println!("run `cargo run -p ftl-analyzer -- --explain <rule>` for the invariant");
        ExitCode::FAILURE
    }
}
