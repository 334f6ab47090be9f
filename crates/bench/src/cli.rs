//! Command-line plumbing shared by the experiment binaries: the flag
//! loop over [`Flags`], the exit on bad input, output files, and the
//! `--from/--to` check of the bucketed studies.

use mkss_core::flags::Flags;
use mkss_obs::Reporter;
use mkss_workload::{bucket_bounds, BucketPlan};

/// Feeds each flag on this process's command line to `apply`, which reads
/// the flag's value from `flags` and returns `Ok(false)` for a flag it
/// does not know. `--help`/`-h` prints `usage` and exits 0.
///
/// # Errors
///
/// `apply`'s error, or `unknown flag '{flag}' (try --help)`.
pub fn parse_flags(
    usage: &str,
    mut apply: impl FnMut(&str, &mut Flags) -> Result<bool, String>,
) -> Result<(), String> {
    let mut flags = Flags::new(std::env::args().skip(1));
    while let Some(flag) = flags.next_flag() {
        if flag == "--help" || flag == "-h" {
            println!("{usage}");
            std::process::exit(0);
        }
        if !apply(&flag, &mut flags)? {
            return Err(format!("unknown flag '{flag}' (try --help)"));
        }
    }
    Ok(())
}

/// The value of `result`, or — on an input error — `error: {e}` on
/// stderr and exit status 1.
pub fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        Reporter::stderr().line(&format!("error: {e}"));
        std::process::exit(1)
    })
}

/// Writes `body` to `path`, reporting `wrote {path}{note}` on `reporter`
/// and returning `true`, or `error writing {path}: {e}` and `false`.
pub fn write_output(reporter: &Reporter, path: &str, body: impl AsRef<[u8]>, note: &str) -> bool {
    match std::fs::write(path, body) {
        Ok(()) => {
            reporter.line(&format!("wrote {path}{note}"));
            true
        }
        Err(e) => {
            reporter.line(&format!("error writing {path}: {e}"));
            false
        }
    }
}

/// Checks a `--from/--to` utilization range before a bucketed study runs.
///
/// # Errors
///
/// A bound is not finite, `[from, to)` holds no whole bucket of `width`
/// (the study would print an empty table and succeed), or a bucket
/// reaches outside `(0, 1]`, where the generator draws no target.
pub fn check_utilization_range(from: f64, to: f64, width: f64) -> Result<(), String> {
    if !(from.is_finite() && to.is_finite()) {
        return Err(format!("--from/--to must be finite, got {from}..{to}"));
    }
    let plan = BucketPlan {
        from,
        to,
        width,
        ..BucketPlan::default()
    };
    let bounds = bucket_bounds(plan);
    if bounds.is_empty() {
        return Err(format!(
            "--from {from} --to {to} holds no utilization bucket of width {width}"
        ));
    }
    if bounds.iter().any(|&(lo, hi)| lo <= 0.0 || hi > 1.0) {
        return Err(format!(
            "--from {from} --to {to} reaches outside the (m,k)-utilization range (0, 1]"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_without_a_bucket_are_rejected() {
        assert_eq!(check_utilization_range(0.1, 0.3, 0.1), Ok(()));
        assert_eq!(check_utilization_range(0.5, 0.6, 0.1), Ok(()));
        for (from, to) in [(0.6, 0.5), (0.5, 0.5), (0.5, 0.55)] {
            let err = check_utilization_range(from, to, 0.1).unwrap_err();
            assert!(err.contains("holds no utilization bucket"), "{err}");
        }
        for (from, to) in [(0.9, 1.1), (-0.1, 0.1), (0.0, 0.3), (0.1, 1.2)] {
            let err = check_utilization_range(from, to, 0.1).unwrap_err();
            assert!(err.contains("outside the (m,k)-utilization range"), "{err}");
        }
        assert_eq!(check_utilization_range(0.1, 1.0, 0.1), Ok(()));
        for (from, to) in [
            (f64::NAN, 0.5),
            (0.1, f64::INFINITY),
            (f64::NEG_INFINITY, 0.5),
        ] {
            let err = check_utilization_range(from, to, 0.1).unwrap_err();
            assert!(err.contains("must be finite"), "{err}");
        }
    }

    #[test]
    fn write_output_reports_both_outcomes() {
        let sink = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        struct Capture(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl std::io::Write for Capture {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let reporter = Reporter::with_sink(Box::new(Capture(sink.clone())));
        let path = std::env::temp_dir().join(format!("mkss-bench-cli-{}.txt", std::process::id()));
        let path = path.to_str().unwrap();
        assert!(write_output(&reporter, path, "x", " (note)"));
        assert_eq!(std::fs::read_to_string(path).unwrap(), "x");
        let _ = std::fs::remove_file(path);
        assert!(!write_output(&reporter, "/no/such/dir/out.json", "x", ""));
        let text = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(format!("wrote {path} (note)").as_str()));
        assert!(lines
            .next()
            .unwrap()
            .starts_with("error writing /no/such/dir/out.json: "));
    }
}
