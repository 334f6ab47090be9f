//! Machine-readable report emission: a hand-rolled JSON writer (the CLI
//! test round-trips its output through the vendored `serde_json`
//! parser), escaping strings with the vendored `serde_json`'s escaper. Shape,
//! version-gated for downstream tooling:
//!
//! ```text
//! {
//!   "version": 2,
//!   "findings": [
//!     {"path": "...", "line": 7, "code": "MKSS-L011",
//!      "rule": "float-fold-determinism", "message": "..."}
//!   ],
//!   "counts": {"findings": 1, "suppressed": 12, "files": 120}
//! }
//! ```

use serde_json::write_escaped;

use crate::rules::Finding;
use crate::LintReport;

/// Report format version; bump only on breaking shape changes.
pub const FORMAT_VERSION: u32 = 2;

/// Renders the full report as a single JSON document (trailing
/// newline included, findings in their sorted order).
pub fn to_json(report: &LintReport) -> String {
    let mut s = String::with_capacity(256 + report.findings.len() * 128);
    s.push_str("{\n  \"version\": ");
    s.push_str(&FORMAT_VERSION.to_string());
    s.push_str(",\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    ");
        push_finding(&mut s, f);
    }
    if !report.findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"counts\": {");
    s.push_str(&format!(
        "\"findings\": {}, \"suppressed\": {}, \"files\": {}",
        report.findings.len(),
        report.suppressed,
        report.files
    ));
    s.push_str("}\n}\n");
    s
}

fn push_finding(s: &mut String, f: &Finding) {
    s.push_str("{\"path\": ");
    write_escaped(s, &f.path);
    s.push_str(&format!(", \"line\": {}", f.line));
    s.push_str(", \"code\": ");
    write_escaped(s, f.code());
    s.push_str(", \"rule\": ");
    write_escaped(s, f.rule);
    s.push_str(", \"message\": ");
    write_escaped(s, &f.message);
    s.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    #[test]
    fn escapes_and_shape() {
        let report = LintReport {
            findings: vec![Finding {
                path: "a\\b.rs".into(),
                line: 3,
                rule: crate::rules::FLOAT_FOLD_DETERMINISM,
                message: "say \"no\"\n".into(),
            }],
            suppressed: 2,
            files: 5,
        };
        let j = to_json(&report);
        assert!(j.contains(r#""version": 2"#));
        assert!(j.contains(r#""code": "MKSS-L011""#));
        assert!(j.contains(r#""path": "a\\b.rs""#));
        assert!(j.contains(r#"say \"no\"\n"#));
        assert!(j.contains(r#""suppressed": 2, "files": 5"#));
    }

    #[test]
    fn empty_report_is_flat() {
        let j = to_json(&LintReport::default());
        assert!(j.contains("\"findings\": []"));
    }

    proptest::proptest! {
        /// Paths and messages — any scalar value, every control character
        /// included — parse back through `serde_json` unchanged.
        #[test]
        fn finding_strings_round_trip(
            draws in proptest::collection::vec(0u32..0x11_0000, 0..40),
        ) {
            let text: String = draws
                .iter()
                .map(|&d| char::from_u32(if d % 2 == 0 { d % 0x20 } else { d }).unwrap_or('\u{fffd}'))
                .collect();
            let report = LintReport {
                findings: vec![Finding {
                    path: text.clone(),
                    line: 1,
                    rule: crate::rules::FLOAT_FOLD_DETERMINISM,
                    message: text.clone(),
                }],
                suppressed: 0,
                files: 1,
            };
            let doc = serde_json::parse_value(&to_json(&report)).expect("valid JSON");
            let finding = &doc.get("findings").and_then(|f| f.as_array()).expect("findings")[0];
            for key in ["path", "message"] {
                proptest::prop_assert_eq!(finding.get(key).and_then(|v| v.as_str()), Some(text.as_str()));
            }
        }
    }
}
