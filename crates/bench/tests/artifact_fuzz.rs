//! Hostile artifacts: `repro check`, `report`, `timeline`, `tails` and
//! `diff` read files a user hands them, so the readers must refuse a
//! damaged one with a message, never panic, abort or hang.
//!
//! Every input here is one of the two committed artifacts — the golden
//! Chrome trace (`crates/obs/tests/golden/trace.json`) and the metrics
//! snapshot (`BENCH_baseline.json`) — truncated, with bytes flipped, or
//! spliced from two cut points (of one file or of both). Each goes
//! through `Json::parse` then `parse_chrome_trace`, and through
//! `Snapshot::parse`, and must come back `Ok` or an `Err` with a
//! non-empty message. A byte that breaks UTF-8 is read as U+FFFD, as a
//! lossy reader would.
//!
//! CI runs this file in the release profile at 2,048 cases.

use proptest::prelude::*;
use sat_bench::snapshot::Snapshot;
use sat_obs::json::Json;
use sat_obs::parse_chrome_trace;

const TRACE: &str = include_str!("../../obs/tests/golden/trace.json");
const SNAPSHOT: &str = include_str!("../../../BENCH_baseline.json");

/// One of the two artifacts, by `pick`.
fn artifact(pick: bool) -> &'static [u8] {
    if pick {
        TRACE.as_bytes()
    } else {
        SNAPSHOT.as_bytes()
    }
}

/// Runs every reader over `bytes`: each answer is `Ok` or an error
/// that says something.
fn read_all(bytes: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    match Json::parse(&text) {
        Ok(doc) => {
            if let Err(e) = parse_chrome_trace(&doc) {
                prop_assert!(!e.is_empty(), "parse_chrome_trace: an empty error");
            }
        }
        Err(e) => prop_assert!(!e.message.is_empty(), "Json::parse: an empty error"),
    }
    if let Err(e) = Snapshot::parse(&text, "") {
        prop_assert!(
            !e.trim_start_matches(": ").is_empty(),
            "Snapshot::parse: an empty error"
        );
    }
    Ok(())
}

#[test]
fn the_committed_artifacts_read_clean() {
    let trace = parse_chrome_trace(&Json::parse(TRACE).unwrap()).unwrap();
    assert!(!trace.events.is_empty());
    let snapshot = Snapshot::parse(SNAPSHOT, "BENCH_baseline.json").unwrap();
    assert!(!snapshot.experiments.is_empty());
}

/// A position in `0..=len`, from any draw.
fn at(draw: usize, len: usize) -> usize {
    draw % (len + 1)
}

proptest! {
    /// Every prefix of either file.
    #[test]
    fn a_truncated_artifact_is_refused_or_read(pick in any::<bool>(), cut in 0..usize::MAX) {
        let bytes = artifact(pick);
        read_all(&bytes[..at(cut, bytes.len())])?;
    }

    /// Up to seven bytes of either file flipped in any bits: the
    /// structure breaks, or a name, a number or a kind changes under a
    /// structure that still parses.
    #[test]
    fn a_byte_flipped_artifact_is_refused_or_read(
        pick in any::<bool>(),
        flips in prop::collection::vec((0..usize::MAX, 1u16..256), 1..8),
    ) {
        let mut bytes = artifact(pick).to_vec();
        for (draw, mask) in flips {
            let len = bytes.len();
            bytes[at(draw, len - 1)] ^= mask as u8;
        }
        read_all(&bytes)?;
    }

    /// The head of one file up to a cut, then the tail of one file from
    /// another cut: documents that switch schema, nesting or event kind
    /// part-way.
    #[test]
    fn a_spliced_artifact_is_refused_or_read(
        head_pick in any::<bool>(),
        tail_pick in any::<bool>(),
        head_cut in 0..usize::MAX,
        tail_cut in 0..usize::MAX,
    ) {
        let (head, tail) = (artifact(head_pick), artifact(tail_pick));
        let mut bytes = head[..at(head_cut, head.len())].to_vec();
        bytes.extend_from_slice(&tail[at(tail_cut, tail.len())..]);
        read_all(&bytes)?;
    }
}
