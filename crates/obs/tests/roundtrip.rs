//! JSONL round-trip property: `write_jsonl → parse_jsonl → write_jsonl`
//! must be byte-identical for arbitrary event batches — the trace file
//! format is the observability layer's only durable interface, so any
//! asymmetry between writer and parser silently corrupts offline
//! analysis (`trace report`, `trace paths`) without failing anything.

use algorand_obs::{parse_jsonl, write_jsonl, SpanKind, TraceEvent, NO_NODE};
use std::borrow::Cow;

/// The repo-standard in-tree RNG (splitmix64): deterministic, no deps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const KINDS: [SpanKind; 9] = [
    SpanKind::Round,
    SpanKind::Proposal,
    SpanKind::BaStep,
    SpanKind::Sortition,
    SpanKind::Verify,
    SpanKind::Tally,
    SpanKind::GossipHop,
    SpanKind::Catchup,
    SpanKind::Fault,
];

/// Labels chosen to exercise the escaper: quotes, backslashes, newlines,
/// control characters, non-ASCII, and the empty string.
const LABELS: [&str; 10] = [
    "vote",
    "block_body",
    "",
    "with \"quotes\"",
    "back\\slash",
    "line\nbreak",
    "ctrl\u{01}\u{1f}chars",
    "tab\there",
    "unicode-λ⋆-ок",
    "mixed \"x\\y\"\n\u{02}",
];

fn random_event(rng: &mut Rng) -> TraceEvent {
    let start = rng.below(1 << 40);
    let node = if rng.below(10) == 0 {
        NO_NODE
    } else {
        rng.below(1000) as u32
    };
    let peer = if rng.below(3) == 0 {
        rng.below(1000) as u32
    } else {
        NO_NODE
    };
    TraceEvent {
        kind: KINDS[rng.below(KINDS.len() as u64) as usize],
        node,
        round: rng.below(1 << 20),
        step: rng.below(300) as u32,
        label: Cow::Borrowed(LABELS[rng.below(LABELS.len() as u64) as usize]),
        start,
        end: start + rng.below(1 << 30),
        value: rng.next(),
        ok: rng.below(2) == 0,
        id: if rng.below(4) == 0 { 0 } else { rng.next() },
        cause: if rng.below(4) == 0 { 0 } else { rng.next() },
        peer,
    }
}

fn assert_roundtrip(seed: u64, schedule: &str, dropped: u64, events: &[TraceEvent]) {
    let first = write_jsonl(seed, schedule, dropped, events);
    let trace = parse_jsonl(&first).expect("writer output must parse");
    assert_eq!(trace.seed, seed);
    assert_eq!(trace.schedule, schedule);
    assert_eq!(trace.dropped, dropped);
    assert_eq!(trace.events.len(), events.len());
    for (parsed, original) in trace.events.iter().zip(events) {
        assert_eq!(parsed, original, "event mutated in transit");
    }
    let second = write_jsonl(trace.seed, &trace.schedule, trace.dropped, &trace.events);
    assert_eq!(first, second, "round-trip is not byte-identical");
}

#[test]
fn randomized_batches_roundtrip_byte_identically() {
    let mut rng = Rng(0xa160_2026_0807);
    for batch in 0..50 {
        let len = rng.below(200) as usize;
        let events: Vec<TraceEvent> = (0..len).map(|_| random_event(&mut rng)).collect();
        let seed = rng.next();
        let dropped = if rng.below(3) == 0 {
            rng.below(1 << 20)
        } else {
            0
        };
        assert_roundtrip(seed, "payment-50", dropped, &events);
        let _ = batch;
    }
}

#[test]
fn empty_batch_roundtrips() {
    assert_roundtrip(0, "", 0, &[]);
    assert_roundtrip(u64::MAX, "smoke", u64::MAX, &[]);
}

#[test]
fn hostile_labels_and_schedules_roundtrip() {
    let mut rng = Rng(7);
    // Every hostile label appears at least once per batch.
    let events: Vec<TraceEvent> = LABELS
        .iter()
        .map(|label| {
            let mut ev = random_event(&mut rng);
            ev.label = Cow::Borrowed(label);
            ev
        })
        .collect();
    for schedule in LABELS {
        assert_roundtrip(23, schedule, 3, &events);
    }
}
