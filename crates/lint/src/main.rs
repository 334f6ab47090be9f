//! `mkss-lint` CLI: lint the workspace (default) or explicit paths.
//!
//! ```text
//! mkss-lint [--root DIR] [--format text|json] [--out FILE]
//!           [--list-rules] [PATH…]
//! ```
//!
//! * no paths: walks every non-vendored `.rs` file under the
//!   workspace root (found by ascending from the current directory);
//! * explicit paths: lints just those files/directories — used by the
//!   CI smoke that asserts a deliberately-bad file fails;
//! * `--format json` renders the machine-readable report (stable
//!   shape, see `DIAGNOSTICS.md`); `--out FILE` additionally writes
//!   the rendered report to a file (gitignored);
//! * exit code: 0 clean, 1 findings, 2 usage/IO error.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Writes to stdout, swallowing broken-pipe errors so `mkss-lint | head`
/// exits quietly instead of panicking in the default `print!` machinery.
fn emit(text: &str) {
    let _ = std::io::stdout().write_all(text.as_bytes());
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut out_file: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--out" => match args.next() {
                Some(f) => out_file = Some(PathBuf::from(f)),
                None => return usage("--out needs a file"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some(other) => return usage(&format!("unknown format `{other}`")),
                None => return usage("--format needs text|json"),
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

    let rendered = match format {
        Format::Json => mkss_lint::output::to_json(&report),
        Format::Text => {
            let mut s = String::new();
            for f in &report.findings {
                s.push_str(&f.to_string());
                s.push('\n');
            }
            s
        }
    };
    emit(&rendered);
    if let Some(out) = out_file {
        if let Err(e) = std::fs::write(&out, &rendered) {
            eprintln!("mkss-lint: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
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
    eprintln!(
        "usage: mkss-lint [--root DIR] [--format text|json] [--out FILE] \
         [--list-rules] [PATH…]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
