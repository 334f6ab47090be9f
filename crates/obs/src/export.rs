//! Exporters: the JSON metrics document and the human text table.
//!
//! The JSON writer is hand-rolled but emits a strict, deterministic
//! subset: object keys in catalog/insertion order, strings escaped by the
//! vendored `serde_json`'s [`write_escaped`], and non-finite floats
//! clamped to `0` so the document always parses.

use serde_json::write_escaped;

use crate::event::HistogramId;
use crate::registry::MetricsSnapshot;

/// A complete metrics document: free-form metadata, the counter/histogram
/// snapshot, and named stage wall-times.
///
/// Top-level JSON keys are fixed — `meta`, `counters`, `histograms`,
/// `stages` — and validated by `scripts/ci.sh`. Counters and histograms
/// are deterministic across `--jobs`; `meta` and `stages` carry the
/// machine-dependent context (compare with them stripped, as
/// `RunStats::strip_timing` does).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDoc {
    meta: Vec<(String, String)>,
    snapshot: MetricsSnapshot,
    stages: Vec<(String, f64)>,
}

impl MetricsDoc {
    /// Wrap a snapshot with no metadata or stages yet.
    pub fn new(snapshot: MetricsSnapshot) -> MetricsDoc {
        MetricsDoc {
            meta: Vec::new(),
            snapshot,
            stages: Vec::new(),
        }
    }

    /// Append a metadata entry (insertion order is preserved).
    pub fn push_meta(&mut self, key: &str, value: impl Into<String>) {
        self.meta.push((key.to_string(), value.into()));
    }

    /// Append a stage wall-time in milliseconds.
    pub fn push_stage(&mut self, name: &str, ms: f64) {
        self.stages.push((name.to_string(), ms));
    }

    /// The wrapped snapshot.
    pub fn snapshot(&self) -> &MetricsSnapshot {
        &self.snapshot
    }

    /// Serialize as a pretty-printed JSON object with the four fixed
    /// top-level keys.
    pub fn to_json(&self) -> String {
        self.render(true)
    }

    /// Serialize as a compact single-line JSON object — same fixed keys
    /// and ordering as [`MetricsDoc::to_json`], no whitespace. This is
    /// the wire form used by the `mkss-serve` line protocol, where a
    /// document must fit one response line.
    pub fn to_json_line(&self) -> String {
        self.render(false)
    }

    /// The one walk behind both renderings, which differ only in
    /// whitespace.
    fn render(&self, pretty: bool) -> String {
        let (colon, comma, section, member) = match pretty {
            true => (": ", ", ", "\n  ", "\n    "),
            false => (":", ",", "", ""),
        };
        // `,` unless the object's first key, the indent, `"key":`.
        let key = |out: &mut String, index: usize, indent: &str, name: &str| {
            if index > 0 {
                out.push(',');
            }
            out.push_str(indent);
            write_escaped(out, name);
            out.push_str(colon);
        };
        let close = |out: &mut String, empty: bool| {
            if !empty {
                out.push_str(section);
            }
            out.push('}');
        };
        let array = |out: &mut String, values: &[u64]| {
            let items: Vec<String> = values.iter().map(u64::to_string).collect();
            out.push_str(&format!("[{}]", items.join(comma)));
        };
        let mut out = String::with_capacity(2048);
        out.push('{');
        key(&mut out, 0, section, "meta");
        out.push('{');
        for (i, (name, value)) in self.meta.iter().enumerate() {
            key(&mut out, i, member, name);
            write_escaped(&mut out, value);
        }
        close(&mut out, self.meta.is_empty());

        key(&mut out, 1, section, "counters");
        out.push('{');
        for (i, (name, value)) in self.snapshot.iter_counters().enumerate() {
            key(&mut out, i, member, name);
            out.push_str(&value.to_string());
        }
        close(&mut out, false);

        key(&mut out, 2, section, "histograms");
        out.push('{');
        for (i, &h) in HistogramId::ALL.iter().enumerate() {
            key(&mut out, i, member, h.name());
            out.push('{');
            key(&mut out, 0, "", "bounds");
            array(&mut out, h.bounds());
            out.push_str(comma);
            key(&mut out, 0, "", "counts");
            array(&mut out, self.snapshot.histogram(h));
            out.push('}');
        }
        close(&mut out, false);

        key(&mut out, 3, section, "stages");
        out.push('{');
        for (i, (name, ms)) in self.stages.iter().enumerate() {
            key(&mut out, i, member, name);
            push_json_f64(&mut out, *ms);
        }
        close(&mut out, self.stages.is_empty());
        out.push_str(if pretty { "\n}\n" } else { "}" });
        out
    }

    /// Render as an aligned human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.meta.is_empty() {
            for (key, value) in &self.meta {
                out.push_str(&format!("# {key}: {value}\n"));
            }
        }
        let name_width = self
            .snapshot
            .iter_counters()
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(0);
        for (name, value) in self.snapshot.iter_counters() {
            out.push_str(&format!("{name:<name_width$}  {value}\n"));
        }
        for &h in HistogramId::ALL.iter() {
            let counts = self.snapshot.histogram(h);
            let total: u64 = counts.iter().sum();
            out.push_str(&format!("{} (n={total}):", h.name()));
            for (i, &count) in counts.iter().enumerate() {
                match h.bounds().get(i) {
                    Some(bound) => out.push_str(&format!(" <={bound}:{count}")),
                    None => out.push_str(&format!(" over:{count}")),
                }
            }
            out.push('\n');
        }
        if !self.stages.is_empty() {
            for (name, ms) in &self.stages {
                out.push_str(&format!("stage {name}: {ms:.1} ms\n"));
            }
        }
        out
    }
}

/// Build the standard metrics document every `mkss` binary emits, in one
/// place: the `binary` identity first, then caller metadata in order,
/// then the snapshot and stage timings.
///
/// Before this entry point existed each binary hand-assembled its
/// `MetricsDoc` (same keys, different code); unifying the assembly keeps
/// `scripts/ci.sh`'s schema validation honest — there is exactly one
/// producer shape to validate.
pub fn metrics_doc(
    binary: &str,
    snapshot: MetricsSnapshot,
    meta: &[(&str, String)],
    stages: &[(&str, f64)],
) -> MetricsDoc {
    let mut doc = MetricsDoc::new(snapshot);
    doc.push_meta("binary", binary);
    for (key, value) in meta {
        doc.push_meta(key, value.clone());
    }
    for (name, ms) in stages {
        doc.push_stage(name, *ms);
    }
    doc
}

/// Write a float that always parses as a JSON number (NaN/inf clamp to 0).
fn push_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        out.push_str(&format!("{value:.3}"));
    } else {
        out.push('0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CounterId;
    use crate::recorder::Recorder;
    use crate::registry::Registry;
    use std::sync::Arc;

    fn sample_doc() -> MetricsDoc {
        let registry = Arc::new(Registry::new(2));
        let h = registry.handle_at(0);
        h.incr(CounterId::JobsReleased, 10);
        h.incr(CounterId::BackupsCanceled, 3);
        h.observe(HistogramId::MkDistance, 1);
        h.observe(HistogramId::BackupDelayMs, 99);
        let mut doc = MetricsDoc::new(registry.snapshot());
        doc.push_meta("binary", "test");
        doc.push_stage("simulate_ms", 12.5);
        doc
    }

    #[test]
    fn json_has_fixed_top_level_keys_and_values() {
        let json = sample_doc().to_json();
        for key in ["\"meta\"", "\"counters\"", "\"histograms\"", "\"stages\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"jobs_released\": 10"), "{json}");
        assert!(json.contains("\"backups_canceled\": 3"), "{json}");
        assert!(json.contains("\"simulate_ms\": 12.500"), "{json}");
        // Overflow bucket of backup_delay_ms caught the 99.
        assert!(json.contains("\"backup_delay_ms\""), "{json}");
    }

    #[test]
    fn json_escapes_strings_and_clamps_non_finite() {
        let mut doc = MetricsDoc::new(MetricsSnapshot::empty());
        doc.push_meta("quote\"back\\slash", "line\nbreak\ttab\u{1}");
        doc.push_stage("bad", f64::NAN);
        doc.push_stage("inf", f64::INFINITY);
        let json = doc.to_json();
        assert!(json.contains("quote\\\"back\\\\slash"), "{json}");
        assert!(json.contains("line\\nbreak\\ttab\\u0001"), "{json}");
        assert!(json.contains("\"bad\": 0"), "{json}");
        assert!(json.contains("\"inf\": 0"), "{json}");
    }

    #[test]
    fn empty_doc_still_emits_all_sections() {
        let json = MetricsDoc::new(MetricsSnapshot::empty()).to_json();
        assert!(json.contains("\"meta\": {}"), "{json}");
        assert!(json.contains("\"stages\": {}"), "{json}");
        assert!(json.contains("\"jobs_released\": 0"), "{json}");
    }

    #[test]
    fn json_line_is_single_line_and_compact() {
        let line = sample_doc().to_json_line();
        assert!(!line.contains('\n'), "{line}");
        assert!(line.starts_with("{\"meta\":{"), "{line}");
        assert!(line.contains("\"jobs_released\":10"), "{line}");
        assert!(line.contains("\"simulate_ms\":12.500"), "{line}");
        assert!(line.ends_with("}}"), "{line}");
    }

    #[test]
    fn json_line_matches_pretty_json_modulo_whitespace() {
        let doc = sample_doc();
        let pretty: String = doc.to_json().split_whitespace().collect();
        // The pretty writer puts ", " inside arrays and ": " after keys;
        // stripping all whitespace makes the two renderings identical.
        assert_eq!(pretty, doc.to_json_line());
    }

    #[test]
    fn metrics_doc_entry_point_orders_meta_and_stages() {
        let doc = metrics_doc(
            "bench_fig6",
            MetricsSnapshot::empty(),
            &[("seed", "42".to_string()), ("policy", "all".to_string())],
            &[("simulate_ms", 1.5), ("total_ms", 2.0)],
        );
        let json = doc.to_json();
        let binary_at = json.find("\"binary\": \"bench_fig6\"").expect("binary key");
        let seed_at = json.find("\"seed\": \"42\"").expect("seed key");
        let policy_at = json.find("\"policy\": \"all\"").expect("policy key");
        assert!(binary_at < seed_at && seed_at < policy_at, "{json}");
        assert!(json.contains("\"simulate_ms\": 1.500"), "{json}");
        assert!(json.contains("\"total_ms\": 2.000"), "{json}");
    }

    #[test]
    fn table_lists_counters_histograms_and_stages() {
        let table = sample_doc().render_table();
        assert!(table.contains("# binary: test"), "{table}");
        assert!(table.contains("jobs_released"), "{table}");
        assert!(table.contains("mk_distance (n=1):"), "{table}");
        assert!(table.contains("over:1"), "{table}");
        assert!(table.contains("stage simulate_ms: 12.5 ms"), "{table}");
    }
}
