//! One JSON string escaper: the vendored `serde_json::write_escaped`
//! backs the hand-rolled writers of the metrics document, the Chrome
//! trace export and the daemon's error lines. For arbitrary strings —
//! every control character included — each writer's output parses back
//! through `serde_json::parse_value` to the same string.

use mkss_obs::{chrome_trace, MetricsDoc, MetricsSnapshot, TraceBuffer};
use proptest::prelude::*;
use serde::Value;
use serde_json::parse_value;

/// A string drawn from `draws`, weighted towards what an escaper must
/// handle: control characters, printable ASCII (quote and backslash
/// among it), and any other scalar value.
fn text(draws: &[u32]) -> String {
    draws
        .iter()
        .map(|&draw| match draw % 3 {
            0 => char::from((draw / 3 % 0x20) as u8),
            1 => char::from((0x20 + draw / 3 % 0x60) as u8),
            _ => char::from_u32(draw / 3 % 0x11_0000).unwrap_or('\u{fffd}'),
        })
        .collect()
}

/// Every character below U+0020, the two JSON escapes by name, DEL, the
/// line and paragraph separators, and two multi-byte characters.
fn hostile() -> String {
    (0u8..0x20)
        .map(char::from)
        .chain(['"', '\\', '\u{7f}', '\u{2028}', '\u{2029}', 'é', '😀'])
        .collect()
}

fn parse(json: &str) -> Value {
    parse_value(json).unwrap_or_else(|e| panic!("{e}: {json:?}"))
}

fn string_at<'a>(value: &'a Value, path: &[&str]) -> &'a str {
    path.iter()
        .fold(value, |v, key| v.get(key).expect(key))
        .as_str()
        .expect("a JSON string")
}

/// What each writer reads back for `s`, by writer name.
fn round_trips(s: &str) -> Vec<(&'static str, String)> {
    let mut escaped = String::new();
    serde_json::write_escaped(&mut escaped, s);

    let mut doc = MetricsDoc::new(MetricsSnapshot::empty());
    doc.push_meta(s, s);
    let meta = |json: &str| -> Vec<String> {
        let doc = parse(json);
        let (key, value) = &doc.get("meta").and_then(Value::as_object).expect("meta")[0];
        vec![key.clone(), value.as_str().expect("meta value").to_owned()]
    };

    let buffer = TraceBuffer::with_capacity(1);
    let trace = parse(&chrome_trace(&[(s, &buffer)]));
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    let process = events
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
        .expect("process_name metadata");

    let error = parse(&mkss_serve::protocol::error_line(Some(7), s));

    let mut read = vec![(
        "write_escaped",
        parse(&escaped).as_str().expect("string").to_owned(),
    )];
    for (name, json) in [
        ("metrics doc", doc.to_json()),
        ("metrics line", doc.to_json_line()),
    ] {
        read.extend(meta(&json).into_iter().map(|text| (name, text)));
    }
    read.push((
        "chrome trace",
        string_at(process, &["args", "name"]).to_owned(),
    ));
    read.push(("serve error", string_at(&error, &["error"]).to_owned()));
    read
}

#[test]
fn every_control_character_round_trips_through_every_writer() {
    let s = hostile();
    for (writer, read) in round_trips(&s) {
        assert_eq!(read, s, "{writer}");
    }
}

#[test]
fn control_characters_use_the_short_escapes_where_json_has_them() {
    let mut out = String::new();
    serde_json::write_escaped(&mut out, "\u{8}\u{c}\n\r\t\"\\\u{1}\u{1f}");
    assert_eq!(out, r#""\b\f\n\r\t\"\\\u0001\u001f""#);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_strings_round_trip_through_every_writer(
        draws in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        let s = text(&draws);
        for (writer, read) in round_trips(&s) {
            prop_assert_eq!(&read, &s, "{}", writer);
        }
    }
}
