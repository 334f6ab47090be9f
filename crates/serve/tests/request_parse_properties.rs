//! The request parser is the daemon's untrusted boundary: whatever bytes
//! arrive on a line, [`Request::parse`] must return a request or a typed
//! [`ProtocolError`], never panic. Two input families probe it: arbitrary
//! byte strings (decoded lossily, as a line reader that tolerated
//! invalid UTF-8 would), and single-byte edits and truncations of a valid
//! `simulate` line, which reach past the JSON layer into the task-set,
//! policy, fault and trace validation.

use mkss_serve::{ProtocolError, Request};
use proptest::prelude::*;

/// A `simulate` line that uses every optional member the parser reads.
const SIMULATE: &str = r#"{"id": 9, "op": "simulate", "task_set": {"tasks": [{"period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4}, {"period_ms": 10, "wcet_ms": 3, "m": 1, "k": 2}]}, "policy": "selective", "horizon_ms": 100.5, "faults": {"seed": 7, "transient_per_ms": 1e-5, "permanent": {"proc": 1, "at_ms": 40}}, "trace": {"last": 64}}"#;

/// Parses `bytes` as one request line; a panic fails the calling test.
fn parse_lossy(bytes: &[u8]) -> Result<Request, ProtocolError> {
    Request::parse(&String::from_utf8_lossy(bytes))
}

/// Applies edit `kind` (replace, delete, insert, truncate) at byte `at`.
fn mutate(kind: u8, at: usize, byte: u8) -> Vec<u8> {
    let mut line = SIMULATE.as_bytes().to_vec();
    match kind % 4 {
        0 => line[at] = byte,
        1 => {
            line.remove(at);
        }
        2 => line.insert(at, byte),
        _ => line.truncate(at),
    }
    line
}

/// The edits below start from a line that parses, so they probe every
/// layer of validation and not just the first error.
#[test]
fn the_unmutated_line_parses() {
    let request = parse_lossy(SIMULATE.as_bytes()).expect("valid simulate line");
    assert_eq!(request.id, 9);
    assert_eq!(request.op.name(), "simulate");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_bytes_parse_or_fail_typed(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Returning at all is the property; an error also carries a
        // message for the client's error line.
        if let Err(err) = parse_lossy(&bytes) {
            prop_assert!(!err.message.is_empty());
        }
    }

    #[test]
    fn edits_of_a_simulate_line_parse_or_fail_typed(
        kind in any::<u8>(),
        at in 0usize..SIMULATE.len(),
        byte in any::<u8>(),
    ) {
        match parse_lossy(&mutate(kind, at, byte)) {
            Ok(request) => prop_assert!(!request.op.name().is_empty()),
            Err(err) => prop_assert!(!err.message.is_empty()),
        }
    }
}
