//! `mkss-lint` CLI: lint the workspace (default) or explicit paths.
//!
//! ```text
//! mkss-lint [--root DIR] [--list-rules] [PATH…]
//! ```
//!
//! * no paths: walks every non-vendored `.rs` file under the
//!   workspace root (found by ascending from the current directory);
//! * explicit paths: lints just those files/directories — used by the
//!   CLI tests that assert a deliberately-bad file fails;
//! * one `file:line: [MKSS-Lnnn rule-id] message` line per finding on
//!   stdout, a count summary on stderr;
//! * exit code: 0 clean, 1 findings, 2 usage/IO error.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Writes to stdout, swallowing broken-pipe errors so `mkss-lint | head`
/// exits quietly instead of panicking in the default `print!` machinery.
fn emit(text: &str) {
    let _ = std::io::stdout().write_all(text.as_bytes());
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--list-rules" => {
                for rule in mkss_lint::rules::RULES {
                    emit(&format!(
                        "{:<10} {:<26} {}\n",
                        rule.code,
                        rule.id,
                        squash(rule.summary)
                    ));
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return usage(""),
            _ if arg.starts_with('-') => return usage(&format!("unknown flag {arg}")),
            _ => paths.push(PathBuf::from(arg)),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("mkss-lint: cannot read current dir: {e}");
                    return ExitCode::from(2);
                }
            };
            match mkss_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("mkss-lint: no workspace root above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = if paths.is_empty() {
        mkss_lint::lint_workspace(&root)
    } else {
        mkss_lint::lint_paths(&root, &paths)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mkss-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let rendered: String = report.findings.iter().map(|f| format!("{f}\n")).collect();
    emit(&rendered);
    eprintln!(
        "mkss-lint: {} finding{} ({} suppressed by allow annotations) across {} files",
        report.findings.len(),
        if report.findings.len() == 1 { "" } else { "s" },
        report.suppressed,
        report.files,
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn squash(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("mkss-lint: {err}");
    }
    eprintln!("usage: mkss-lint [--root DIR] [--list-rules] [PATH…]");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
