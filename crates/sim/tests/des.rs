//! Determinism and validation gates for the parallel discrete-event
//! engine.
//!
//! The load-bearing property: for any seed and any worker count, chain
//! digests, monitor verdicts, and exported traces are **byte-identical**.
//! Every shared-state effect in the engine happens in a sequential phase
//! in canonical `(time, class, seq)` order, so worker threads can only
//! change wall-clock, never results. These tests pin that for a chaos
//! schedule, a payment workload, and an equivocating adversary, and
//! validate the engine against the analytic epidemic model at an
//! overlapping network size.

use algorand_core::WireMessage;
use algorand_ledger::Transaction;
use algorand_sim::{
    DesConfig, EpidemicConfig, FaultAction, FaultSchedule, Micros, ParallelSim, PartitionSpec,
    SimConfig,
};

const SEC: Micros = 1_000_000;

fn des(sim: SimConfig, workers: usize) -> ParallelSim {
    ParallelSim::new(DesConfig {
        sim,
        workers,
        trace_node_budget: 0,
    })
}

/// The registry's relay counters as a caller reads them straight after a
/// run, with no `publish_metrics` in between. Cells count privately in
/// the node phase and the engine adds the counts up at barriers, so the
/// totals must not depend on which thread ran which cell — or be lost
/// with a relay that a restart replaces.
fn relay_counts(sim: &ParallelSim) -> [u64; 3] {
    [
        "gossip.relayed",
        "gossip.duplicates",
        "gossip.equivocations",
    ]
    .map(|name| sim.registry().counter(name).get())
}

/// One full traced chaos run; returns everything the gate compares.
fn chaos_run(workers: usize) -> ([u8; 32], String, String, [u64; 3]) {
    let mut cfg = SimConfig::new(12);
    cfg.seed = 33;
    cfg.trace = true;
    cfg.monitor = true;
    let mut sim = des(cfg, workers);
    sim.set_fault_schedule(
        FaultSchedule::new()
            .loss_window(0.25, 10 * SEC, 40 * SEC)
            .crash_restart(2, 15 * SEC, 45 * SEC),
    );
    sim.run_until(90 * SEC);
    let digest = sim.chain_digest();
    let monitor = format!("{}", sim.monitor_report().expect("monitor attached"));
    let trace = sim.export_trace("des-chaos");
    (digest, monitor, trace, relay_counts(&sim))
}

#[test]
fn chaos_results_are_identical_across_worker_counts() {
    let (d1, m1, t1, r1) = chaos_run(1);
    for workers in [2, 4] {
        let (d, m, t, r) = chaos_run(workers);
        assert_eq!(d1, d, "chain digest diverged at {workers} workers");
        assert_eq!(m1, m, "monitor verdict diverged at {workers} workers");
        assert_eq!(t1, t, "trace diverged at {workers} workers");
        assert_eq!(r1, r, "relay counters diverged at {workers} workers");
    }
    assert!(
        r1[0] > 0 && r1[1] > r1[0],
        "relay counters never reached the registry: {r1:?}"
    );
    // The run must have done real work: some rounds finalized.
    assert!(t1.contains("round"), "trace is empty");
}

/// A payment workload with an equivocating minority, plus every entry
/// point a caller drives by hand — before the first window and between
/// windows; compares digests, traces, and end-to-end tx accounting
/// across worker counts. 40 users, so that vote bursts cross the
/// engine's events-per-window threshold and windows really run on
/// worker threads.
fn payment_run(workers: usize) -> ([u8; 32], String, String) {
    let n = 40;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 77;
    cfg.n_malicious = 6;
    cfg.tx_rate = 4.0;
    cfg.tx_total = 24;
    cfg.trace = true;
    cfg.monitor = true;
    let mut sim = des(cfg, workers);
    // Hand-made payments are signed by the malicious users' keys: the
    // workload never picks those as senders, so their nonces are ours.
    let pay = |sim: &ParallelSim, from: usize, nonce: u64| {
        Transaction::payment(sim.keypair(from), sim.keypair(0).pk, 1, nonce)
    };
    let by_hand = [
        pay(&sim, n - 1, 1),
        pay(&sim, n - 2, 1),
        pay(&sim, n - 3, 1),
        pay(&sim, n - 2, 2),
        pay(&sim, n - 3, 2),
    ];
    sim.preload_transactions(&by_hand[..1]);
    sim.submit_transaction(2, by_hand[1].clone());
    sim.inject_message(3, WireMessage::Transaction(by_hand[2].clone()));
    // Node 5 cannot send for the first five seconds.
    let group_of = (0..n).map(|i| u8::from(i == 5)).collect();
    let mute = FaultAction::Partition(PartitionSpec {
        group_of,
        blocked: vec![(1, 0)],
    });
    sim.set_fault_schedule(
        FaultSchedule::new()
            .at(0, mute)
            .at(5 * SEC, FaultAction::Heal),
    );
    sim.run_rounds(2, 240 * SEC);
    sim.submit_transaction(4, by_hand[3].clone());
    sim.inject_message(6, WireMessage::Transaction(by_hand[4].clone()));
    sim.run_rounds(5, 240 * SEC);

    assert!(
        sim.fault_report().dropped_by_partition > 0,
        "partition never bit"
    );
    let chain = sim.honest_node(0).chain();
    for (i, tx) in by_hand.iter().enumerate() {
        assert!(
            chain.confirmed_round(&tx.id()).is_some(),
            "hand-made payment {i} never committed"
        );
    }
    let digest = sim.chain_digest();
    let stats = format!("{:?} relay {:?}", sim.tx_stats(), relay_counts(&sim));
    let trace = sim.export_trace("des-payment");
    (digest, stats, trace)
}

#[test]
fn payment_workload_is_identical_across_worker_counts() {
    let (d1, s1, t1) = payment_run(1);
    for workers in [2, 4] {
        let (d, s, t) = payment_run(workers);
        assert_eq!(d1, d, "chain digest diverged at {workers} workers");
        assert_eq!(s1, s, "tx stats diverged at {workers} workers");
        assert_eq!(t1, t, "trace diverged at {workers} workers");
    }
}

#[test]
fn same_seed_same_run_is_reproducible() {
    let (d1, m1, t1, r1) = chaos_run(2);
    let (d2, m2, t2, r2) = chaos_run(2);
    assert_eq!(d1, d2);
    assert_eq!(m1, m2);
    assert_eq!(t1, t2);
    assert_eq!(r1, r2);
}

/// Satellite: the per-node trace retention budget caps memory with
/// explicit `trimmed` accounting, and the invariant monitor — which sees
/// the full stream, before trimming — still passes on the retained run.
#[test]
fn trace_budget_caps_retained_events_with_accounting() {
    let mut cfg = SimConfig::new(12);
    cfg.seed = 41;
    cfg.trace = true;
    cfg.monitor = true;
    let budget = 40;
    let mut sim = ParallelSim::new(DesConfig {
        sim: cfg.clone(),
        workers: 2,
        trace_node_budget: budget,
    });
    let mut unlimited = ParallelSim::new(DesConfig {
        sim: cfg,
        workers: 2,
        trace_node_budget: 0,
    });
    sim.run_until(60 * SEC);
    unlimited.run_until(60 * SEC);

    let trimmed = sim.trace_trimmed();
    assert!(trimmed > 0, "a 60s run must exceed 40 events on some node");
    assert_eq!(
        sim.trace_dropped(),
        0,
        "budget trims, buffers never overflow"
    );
    // Retention is bounded: at most `budget` per node plus unattributed
    // engine spans — far below the unlimited run.
    assert!(
        sim.trace_retained() < unlimited.trace_retained(),
        "budget did not reduce retention ({} vs {})",
        sim.trace_retained(),
        unlimited.trace_retained()
    );
    let jsonl = sim.export_trace("des-budget");
    let header = jsonl.lines().next().expect("header line");
    assert!(
        header.contains(&format!("\"trimmed\":{trimmed}")),
        "export header must account for trimmed events: {header}"
    );
    // The byte ceiling: budget * nodes * (generous per-event JSON size)
    // plus the per-node bandwidth summaries.
    let ceiling = budget * 12 * 400 + 64 * 1024;
    assert!(
        jsonl.len() < ceiling,
        "trimmed export too large: {} >= {ceiling}",
        jsonl.len()
    );
    // Trimming is observability-only: the protocol outcome is untouched
    // and the monitor (fed pre-trim) stays clean.
    assert_eq!(sim.chain_digest(), unlimited.chain_digest());
    let report = sim.monitor_report().expect("monitor");
    assert_eq!(report.total_violations(), 0, "{report}");
}

/// Satellite: the analytic epidemic model and the real discrete-event
/// engine must agree on finalization latency where their domains
/// overlap. The model is a closed-form estimate, so the gate is a
/// factor band, not equality — but a band tight enough to catch a
/// misconfigured engine (e.g. lost lookahead, broken uplink model).
#[test]
fn epidemic_model_agrees_with_des_at_overlapping_size() {
    let n = 100;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 5;
    let params = cfg.params;
    let mut sim = des(cfg, 4);
    let rounds = 3;
    sim.run_rounds(rounds, 240 * SEC);
    let records = sim.combined_records();
    let finalized = records[0].len() as u64;
    assert!(finalized >= rounds, "only {finalized} rounds finalized");
    let mean_s = records[0]
        .iter()
        .take(rounds as usize)
        .map(|r| (r.finished - r.started) as f64 / 1e6)
        .sum::<f64>()
        / rounds as f64;

    // The model at the simulator's operating point (not figure6's EC2
    // packing): same per-user bandwidth, latency, and fan-out.
    let mut model = EpidemicConfig::figure6(n);
    model.bandwidth_bps = 20e6;
    model.mean_latency_s = 0.075;
    model.fanout = 4;
    model.block_bytes = 2_000;
    model.tau_step = params.ba.tau_step;
    let predicted_s = model.round_latency_s(&params);

    let ratio = mean_s / predicted_s;
    assert!(
        (0.25..=4.0).contains(&ratio),
        "DES mean {mean_s:.2}s vs epidemic model {predicted_s:.2}s (ratio {ratio:.2})"
    );
}
