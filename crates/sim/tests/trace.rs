//! Tracing must be invisible to the protocol and replayable: the same
//! `(seed, schedule)` yields byte-identical trace JSONL, and enabling
//! tracing cannot change the chain digest. (The full 50-user CI gate
//! is `trace check`, in `bench/src/bin/trace.rs`; this is the fast
//! in-tree version.)

use algorand_sim::obs::{parse_jsonl, SpanKind};
use algorand_sim::{SimConfig, Simulation};

const T_CAP: u64 = 600 * 1_000_000;

fn run(trace: bool) -> Simulation {
    let mut cfg = SimConfig::new(8);
    cfg.seed = 31;
    cfg.trace = trace;
    let mut sim = Simulation::new(cfg);
    sim.run_rounds(3, T_CAP);
    sim
}

#[test]
fn trace_export_is_deterministic_and_inert() {
    let a = run(true);
    let b = run(true);
    let plain = run(false);
    assert_eq!(
        a.chain_digest(),
        plain.chain_digest(),
        "tracing changed the simulation outcome"
    );
    let jsonl_a = a.export_trace("smoke-8");
    assert_eq!(
        jsonl_a,
        b.export_trace("smoke-8"),
        "trace is not replayable"
    );

    let trace = parse_jsonl(&jsonl_a).expect("exporter emits parseable JSONL");
    assert_eq!(trace.seed, 31);
    assert_eq!(trace.schedule, "smoke-8");
    assert_eq!(trace.dropped, 0);
    // Every node finished 3 rounds ⇒ 24 round spans, each with a
    // matching proposal span and at least one BA⋆ step span.
    let count = |kind| trace.events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count(SpanKind::Round), 24);
    assert_eq!(count(SpanKind::Proposal), 24);
    assert!(count(SpanKind::BaStep) >= 24);
    assert!(count(SpanKind::Verify) > 0);
    assert!(count(SpanKind::Sortition) > 0);
    // The exporter appends one uplink/downlink summary pair per user.
    let bw = trace
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::GossipHop && e.label.ends_with("_total"))
        .count();
    assert_eq!(bw, 16);
    // …plus the network-wide per-kind byte counters, in fixed order.
    let kinds: Vec<&str> = trace
        .events
        .iter()
        .filter(|e| e.label.starts_with("bytes_"))
        .map(|e| e.label.as_ref())
        .collect();
    assert_eq!(
        kinds,
        [
            "bytes_vote",
            "bytes_priority",
            "bytes_block",
            "bytes_fork",
            "bytes_tx",
            "bytes_catchup"
        ]
    );
    // Votes and priorities moved bytes in any healthy run.
    let bytes_of = |label: &str| {
        trace
            .events
            .iter()
            .find(|e| e.label == label)
            .map_or(0, |e| e.value)
    };
    assert!(bytes_of("bytes_vote") > 0);
    assert!(bytes_of("bytes_priority") > 0);
    // Vote and priority gossip hops are now individually traced, with
    // the sender stamped for the causal walk.
    assert!(trace
        .events
        .iter()
        .any(|e| e.kind == SpanKind::GossipHop && e.label == "vote" && e.id != 0));
}

#[test]
fn untraced_run_records_no_events() {
    let sim = run(false);
    let trace = parse_jsonl(&sim.export_trace("off")).expect("valid JSONL");
    // Only the per-node bandwidth summaries appear.
    assert!(trace.events.iter().all(|e| e.label.ends_with("_total")));
}
