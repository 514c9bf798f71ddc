//! Chaos harness: scripted fault schedules driven deterministically
//! through the event queue (§3's safety goal under arbitrary asynchrony,
//! §8.2–§8.3 recovery, §10.4–§10.6 attack conditions).
//!
//! Every test asserts the two chaos invariants:
//!
//! (a) **safety** — no two honest nodes ever finalize conflicting blocks
//!     for the same round, no matter what faults are active, and
//! (b) **recovery** — within a bounded virtual time after the last fault
//!     clears, all honest nodes converge onto a common chain and resume
//!     making progress.

use algorand_sim::{FaultAction, FaultSchedule, SimConfig, Simulation};
use std::collections::HashMap;

const SEC: u64 = 1_000_000;

/// Attach the online invariant monitor (which rides the tracer's
/// observer slot, so it sees every event even past the buffer cap).
/// Every chaos schedule runs monitored: faults are exactly when the
/// protocol invariants are under the most pressure.
fn monitored(mut cfg: SimConfig) -> SimConfig {
    cfg.trace = true;
    cfg.monitor = true;
    cfg
}

/// The monitor must have flagged nothing — and must actually have seen
/// traffic (certificates, tallies, seed verdicts), so a silently
/// disconnected monitor can't pass vacuously.
fn assert_monitor_clean(sim: &Simulation) {
    let report = sim.monitor_report().expect("monitor attached");
    assert!(
        report.observed.certificates > 0,
        "monitor saw no certificates"
    );
    assert!(
        report.observed.tally_adds > 0,
        "monitor saw no vote tallies"
    );
    assert!(report.observed.seeds > 0, "monitor saw no seed verdicts");
    assert_eq!(
        report.total_violations(),
        0,
        "invariant violations under chaos: {:?}",
        report.violations
    );
}

/// Safety: no two honest users may have different *finalized* blocks at
/// the same round, ever.
fn assert_no_divergent_finality(sim: &Simulation, n_honest: usize) {
    let mut finalized: HashMap<u64, [u8; 32]> = HashMap::new();
    for i in 0..n_honest {
        let chain = sim.honest_node(i).chain();
        for round in 1..=chain.tip().round {
            if chain.is_finalized(round) {
                let h = chain.block_at(round).expect("canonical").hash();
                match finalized.get(&round) {
                    Some(prev) => assert_eq!(
                        *prev, h,
                        "divergent finalized blocks at round {round} (node {i})"
                    ),
                    None => {
                        finalized.insert(round, h);
                    }
                }
            }
        }
    }
}

/// Convergence: all honest nodes agree block-for-block up to the least
/// advanced tip (which must itself be past `min_round`). Returns the
/// common height.
fn assert_common_prefix(sim: &Simulation, n_honest: usize, min_round: u64) -> u64 {
    let min_tip = (0..n_honest)
        .map(|i| sim.honest_node(i).chain().tip().round)
        .min()
        .unwrap();
    assert!(
        min_tip >= min_round,
        "least advanced honest node is at round {min_tip}, expected ≥ {min_round}"
    );
    for round in 1..=min_tip {
        let h0 = sim.honest_node(0).chain().block_at(round).unwrap().hash();
        for i in 1..n_honest {
            assert_eq!(
                sim.honest_node(i).chain().block_at(round).unwrap().hash(),
                h0,
                "node {i} on a different fork at round {round}"
            );
        }
    }
    min_tip
}

fn min_tip(sim: &Simulation, n_honest: usize) -> u64 {
    (0..n_honest)
        .map(|i| sim.honest_node(i).chain().tip().round)
        .min()
        .unwrap()
}

#[test]
fn clean_partition_heal_converges() {
    // Schedule 1: a symmetric bipartition for 60 s. Neither half can
    // reach a committee threshold, so both stall; after the heal, the
    // escalation ladder (watchdog catch-up, then epoch recovery if
    // needed) must reconverge everyone onto one chain.
    let n = 16;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 11;
    let mut sim = Simulation::new(monitored(cfg));
    let schedule = FaultSchedule::new().bipartition(n, n / 2, 30 * SEC, 90 * SEC);
    let clear = schedule.last_event_at();
    sim.set_fault_schedule(schedule);
    sim.run_until(30 * SEC);
    let tip_before = min_tip(&sim, n);
    sim.run_until(clear + 240 * SEC);
    assert_no_divergent_finality(&sim, n);
    assert_common_prefix(&sim, n, tip_before + 2);
    let report = sim.fault_report();
    assert_eq!(report.partitions_activated, 1);
    assert!(report.dropped_by_partition > 0, "partition never bit");
    assert_monitor_clean(&sim);
}

#[test]
fn asymmetric_partition_heals() {
    // Schedule 2: one-directional link failure — the minority group
    // still *hears* the majority but cannot talk back. The majority
    // (10 of 12) keeps its committee threshold, so it should keep
    // deciding rounds right through the fault; the muted minority
    // follows the chain read-only and fully rejoins after the heal.
    let n = 12;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 12;
    let mut sim = Simulation::new(monitored(cfg));
    let schedule = FaultSchedule::new().asymmetric_partition(n, 10, 30 * SEC, 90 * SEC);
    let clear = schedule.last_event_at();
    sim.set_fault_schedule(schedule);
    sim.run_until(30 * SEC);
    let tip_before = min_tip(&sim, n);
    sim.run_until(clear + 180 * SEC);
    assert_no_divergent_finality(&sim, n);
    assert_common_prefix(&sim, n, tip_before + 2);
    assert!(sim.fault_report().dropped_by_partition > 0);
    assert_monitor_clean(&sim);
}

#[test]
fn thirty_percent_loss_keeps_liveness() {
    // Schedule 3: 30% random packet loss for a minute. Gossip's path
    // redundancy (out-degree 4 plus relaying) rides through it: rounds
    // slow down but never stop, and no recovery machinery is needed.
    let n = 12;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 13;
    let mut sim = Simulation::new(monitored(cfg));
    let schedule = FaultSchedule::new().loss_window(0.30, 20 * SEC, 80 * SEC);
    let clear = schedule.last_event_at();
    sim.set_fault_schedule(schedule);
    sim.run_until(clear + 120 * SEC);
    assert_no_divergent_finality(&sim, n);
    assert_common_prefix(&sim, n, 5);
    let report = sim.fault_report();
    assert!(report.dropped_by_loss > 0, "loss window never bit");
    assert_eq!(report.restarts, 0);
    assert_monitor_clean(&sim);
}

#[test]
fn crash_majority_restart_converges() {
    // Schedule 4: 9 of 16 nodes (56% of stake) crash for a minute. The
    // surviving minority cannot certify anything — their steps time out
    // and the adaptive backoff stretches their deadlines. After the
    // restart the network must converge onto one chain and resume.
    let n = 16;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 14;
    let mut sim = Simulation::new(monitored(cfg));
    let mut schedule = FaultSchedule::new();
    for node in 0..9 {
        schedule = schedule.crash_restart(node, 40 * SEC, 100 * SEC);
    }
    let clear = schedule.last_event_at();
    sim.set_fault_schedule(schedule);
    sim.run_until(40 * SEC);
    let tip_before = min_tip(&sim, n);
    sim.run_until(clear + 320 * SEC);
    assert_no_divergent_finality(&sim, n);
    assert_common_prefix(&sim, n, tip_before + 2);
    let report = sim.fault_report();
    assert_eq!(report.restarts, 9);
    assert!(
        report.recovery.timeout_escalations > 0,
        "survivors should have burned step timeouts while the majority was down"
    );
    assert_monitor_clean(&sim);
}

#[test]
fn partition_with_equivocators_cannot_fork() {
    // Schedule 5: a partition while §10.4 equivocators are active — the
    // adversary's best shot at splitting honest users onto twin blocks.
    // Safety must hold during and after; honest nodes reconverge.
    let n = 20;
    let mut cfg = SimConfig::new(n);
    cfg.n_malicious = 4; // 20% of stake, colluding equivocators.
    cfg.seed = 15;
    let mut sim = Simulation::new(monitored(cfg));
    let schedule = FaultSchedule::new().bipartition(n, n / 2, 30 * SEC, 90 * SEC);
    let clear = schedule.last_event_at();
    sim.set_fault_schedule(schedule);
    let n_honest = 16;
    sim.run_until(30 * SEC);
    let tip_before = min_tip(&sim, n_honest);
    sim.run_until(clear + 240 * SEC);
    assert_no_divergent_finality(&sim, n_honest);
    assert_common_prefix(&sim, n_honest, tip_before + 2);
    assert_monitor_clean(&sim);
}

#[test]
fn rolling_restarts_preserve_chain() {
    // Schedule 6: a rolling maintenance wave — nodes 0..6 go down and
    // come back one after another, windows overlapping two at a time.
    // At no point is a majority missing, so the network keeps deciding
    // rounds, and every returning node slots back in.
    let n = 12;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 16;
    let mut sim = Simulation::new(monitored(cfg));
    let mut schedule = FaultSchedule::new();
    for node in 0..6 {
        let down = (20 + 15 * node as u64) * SEC;
        schedule = schedule.crash_restart(node, down, down + 30 * SEC);
    }
    let clear = schedule.last_event_at();
    sim.set_fault_schedule(schedule);
    sim.run_until(clear + 180 * SEC);
    assert_no_divergent_finality(&sim, n);
    assert_common_prefix(&sim, n, 6);
    assert_eq!(sim.fault_report().restarts, 6);
    assert_monitor_clean(&sim);
}

#[test]
fn crashed_node_rejoins_via_catchup() {
    // The acceptance scenario: one node crashes, the network moves on
    // without it, and on restart it provably resyncs through the §8.3
    // catch-up protocol (not by replaying live rounds) and then
    // finalizes rounds it takes part in normally.
    let n = 10;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 17;
    let mut sim = Simulation::new(monitored(cfg));
    let schedule = FaultSchedule::new().crash_restart(0, 30 * SEC, 90 * SEC);
    let clear = schedule.last_event_at();
    sim.set_fault_schedule(schedule);
    sim.run_until(30 * SEC);
    let tip_at_crash = sim.honest_node(0).chain().tip().round;
    sim.run_until(clear + 150 * SEC);
    assert_no_divergent_finality(&sim, n);
    let common = assert_common_prefix(&sim, n, tip_at_crash + 4);
    let rejoined = sim.honest_node(0);
    assert!(
        rejoined.recovery_stats().catchups_applied > 0,
        "restarted node should have adopted the missed rounds via catch-up"
    );
    // It participates normally again: rounds *after* the gap were
    // completed live (recorded), not just adopted.
    assert!(
        rejoined
            .records()
            .iter()
            .any(|r| r.round > tip_at_crash && r.round <= common),
        "restarted node never completed a live round after rejoining"
    );
    assert_monitor_clean(&sim);
}

#[test]
fn clock_skew_and_delay_spike_tolerated() {
    // Loosely synchronized clocks (§8.2's assumption) plus a latency
    // spike: two nodes run fast by up to half a λ_priority, one runs
    // *slow* by 300 ms (skews are signed), while all links triple their
    // latency for 40 s. Liveness and safety hold.
    let n = 12;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 18;
    let mut sim = Simulation::new(monitored(cfg));
    let schedule = FaultSchedule::new()
        .at(
            5 * SEC,
            FaultAction::ClockSkew {
                node: 1,
                skew: 200_000,
            },
        )
        .at(
            5 * SEC,
            FaultAction::ClockSkew {
                node: 2,
                skew: 500_000,
            },
        )
        .at(
            5 * SEC,
            FaultAction::ClockSkew {
                node: 3,
                skew: -300_000,
            },
        )
        .at(
            20 * SEC,
            FaultAction::DelaySpike {
                factor: 3.0,
                extra: 100_000,
            },
        )
        .at(60 * SEC, FaultAction::DelayClear);
    let clear = schedule.last_event_at();
    sim.set_fault_schedule(schedule);
    sim.run_until(clear + 120 * SEC);
    assert_no_divergent_finality(&sim, n);
    assert_common_prefix(&sim, n, 5);
    assert_monitor_clean(&sim);
}

#[test]
fn identical_seed_and_schedule_replay_identically() {
    // Determinism: a (seed, schedule) pair replays byte-identically —
    // same final chains on every honest node, hence the same digest.
    let run = || {
        let n = 10;
        let mut cfg = SimConfig::new(n);
        cfg.seed = 19;
        let mut sim = Simulation::new(monitored(cfg));
        let schedule = FaultSchedule::new()
            .bipartition(n, 5, 20 * SEC, 50 * SEC)
            .loss_window(0.15, 60 * SEC, 90 * SEC)
            .crash_restart(3, 95 * SEC, 115 * SEC);
        sim.set_fault_schedule(schedule);
        sim.run_until(220 * SEC);
        assert_monitor_clean(&sim);
        (sim.chain_digest(), sim.now())
    };
    let (digest_a, now_a) = run();
    let (digest_b, now_b) = run();
    assert_eq!(digest_a, digest_b, "chaos replay diverged");
    assert_eq!(now_a, now_b);
}

#[test]
fn restart_carries_precrash_counters_exactly_once() {
    // A crashed-then-restarted node loses all volatile state, including
    // its measurement counters. The aggregating reports must still show
    // its pre-crash history — carried over exactly once per node id —
    // while the live node object restarts from zero.
    let n = 10;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 17;
    let mut sim = Simulation::new(monitored(cfg));
    let schedule = FaultSchedule::new().crash_restart(0, 30 * SEC, 90 * SEC);
    let clear = schedule.last_event_at();
    sim.set_fault_schedule(schedule);
    sim.run_until(30 * SEC);
    let tip_at_crash = sim.honest_node(0).chain().tip().round;
    assert!(
        tip_at_crash >= 2,
        "node 0 should finish rounds before the crash"
    );
    sim.run_until(clear + 150 * SEC);

    // The live (restarted) object has no memory of pre-crash rounds …
    let live_first = sim.honest_node(0).records().iter().map(|r| r.round).min();
    assert!(
        live_first.is_none_or(|r| r > tip_at_crash),
        "restored node unexpectedly holds pre-crash records"
    );
    // … but the combined view still has them, each round exactly once.
    let combined = sim.combined_records();
    let rounds: Vec<u64> = combined[0].iter().map(|r| r.round).collect();
    assert!(
        rounds.iter().any(|&r| r <= tip_at_crash),
        "pre-crash rounds lost from the aggregated records"
    );
    let mut dedup = rounds.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), rounds.len(), "a round was double-counted");

    // Pipeline counters: the report must exceed the live-only sum by
    // exactly the carried pre-crash share (> 0 here, since node 0
    // ingested traffic before going down).
    let live_only: u64 = (0..n)
        .map(|i| sim.honest_node(i).pipeline_stats().ingested)
        .sum();
    assert!(
        sim.pipeline_report().stages.ingested > live_only,
        "pre-crash pipeline counters lost from the aggregate"
    );
    assert_monitor_clean(&sim);
}
