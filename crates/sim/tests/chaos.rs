//! Chaos harness: the hand-written fault schedules of
//! `algorand_sim::fuzz::chaos_table`, each judged by the fuzz oracle
//! (§3's safety goal under arbitrary asynchrony, §8.2–§8.3 recovery,
//! §10.4–§10.6 attack conditions).
//!
//! Every row must pass the oracle: the invariant monitor stays clean, no
//! two honest nodes ever finalize conflicting blocks, and within the
//! recovery bound after the schedule's last event every honest node is
//! ≥ 2 rounds on, on one common chain. Every row's faults must also have
//! bitten, and its monitor must have seen traffic. The remaining tests
//! check what only one scenario shows.

use algorand_sim::fuzz::{chaos_table, common_prefix, judge, min_tip, FuzzCase};
use algorand_sim::{FaultAction, Simulation, VerdictClass};

const SEC: u64 = 1_000_000;

/// Judges one case on one worker; panics unless the oracle passes it.
fn pass(name: &str, case: &FuzzCase) -> Simulation {
    let mut sim = Simulation::new(case.config());
    let verdict = judge(&mut sim, case);
    assert_eq!(verdict.class, VerdictClass::Pass, "{name}: {verdict:?}");
    sim
}

/// The table row called `name`, judged and passed.
fn row(name: &str) -> (FuzzCase, Simulation) {
    let (_, case) = chaos_table()
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("a chaos table row");
    let sim = pass(name, &case);
    (case, sim)
}

#[test]
fn every_schedule_passes_and_its_faults_bite() {
    for (name, case) in chaos_table() {
        let sim = pass(name, &case);
        let count = |is: fn(&FaultAction) -> bool| {
            case.schedule
                .events()
                .iter()
                .filter(|e| is(&e.action))
                .count()
        };
        let partitions = count(|a| matches!(a, FaultAction::Partition(_)));
        let losses = count(|a| matches!(a, FaultAction::Loss(p) if *p > 0.0));
        let restarts = count(|a| matches!(a, FaultAction::Restart(_)));
        let report = sim.fault_report();
        assert_eq!(report.partitions_activated, partitions, "{name}");
        assert_eq!(
            report.dropped_by_partition > 0,
            partitions > 0,
            "{name}: {report}"
        );
        assert_eq!(report.dropped_by_loss > 0, losses > 0, "{name}: {report}");
        assert_eq!(report.restarts, restarts, "{name}");
        // A restarted node that missed rounds learns so from its peers'
        // STATUS and asks one of them. (A restarted majority missed
        // nothing: no one could finalize while it was down.)
        if restarts > 0 && report.recovery.catchups_applied > 0 {
            assert!(report.blocksync_requests > 0, "{name}: {report}");
        }
        // A disconnected monitor must not pass vacuously.
        let seen = sim.monitor_report().expect("monitor attached").observed;
        assert!(
            seen.certificates > 0 && seen.tally_adds > 0 && seen.seeds > 0,
            "{name}: the monitor saw too little: {seen:?}"
        );
    }
}

#[test]
fn survivors_of_a_crashed_majority_back_off() {
    // With 9 of 16 nodes down, no committee reaches its threshold: the
    // survivors' steps time out and the adaptive backoff stretches their
    // deadlines until the restart.
    let (_, sim) = row("crash majority 9/16");
    assert!(
        sim.fault_report().recovery.timeout_escalations > 0,
        "survivors should have burned step timeouts while the majority was down"
    );
}

#[test]
fn crashed_node_rejoins_via_catchup_and_keeps_its_history() {
    // One node crashes, the network moves on without it, and on restart
    // it provably resyncs through the §8.3 catch-up protocol (not by
    // replaying live rounds), then finalizes rounds it takes part in
    // normally. The restarted node object starts from zero, while the
    // aggregating reports carry its pre-crash history exactly once.
    let (case, mut sim) = row("crash/rejoin via catch-up");
    // Catch-up reconverges within a slice, and blocksync re-latches the
    // node onto live rounds: it finishes its first one 3.6 virtual
    // seconds after its restart (DESIGN.md §9). The window is margin.
    sim.run_until(sim.now() + 150 * SEC);
    let n = case.n_honest();
    assert!(
        common_prefix(&sim, n),
        "honest chains forked after the rejoin"
    );
    let common = min_tip(&sim, n);
    // The row's one onset is node 0's crash.
    let crash = case.schedule.last_fault_onset();
    let combined = &sim.combined_records()[0];
    let before_crash = combined.iter().filter(|r| r.finished <= crash);
    let tip_at_crash = before_crash.map(|r| r.round).max().unwrap_or(0);
    assert!(
        tip_at_crash >= 2,
        "node 0's pre-crash rounds are missing from the aggregated records"
    );
    let rounds: Vec<u64> = combined.iter().map(|r| r.round).collect();
    let mut dedup = rounds.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), rounds.len(), "a round was double-counted");

    let rejoined = sim.honest_node(0);
    assert!(
        rejoined.recovery_stats().catchups_applied > 0,
        "restarted node should have adopted the missed rounds via catch-up"
    );
    let live: Vec<u64> = rejoined.records().iter().map(|r| r.round).collect();
    assert!(
        live.iter().all(|&r| r > tip_at_crash),
        "restored node unexpectedly holds pre-crash records: {live:?}"
    );
    assert!(
        live.iter().any(|&r| r <= common),
        "restarted node never completed a live round after rejoining"
    );
    // Pipeline counters: the report exceeds the live-only sum by the
    // carried pre-crash share (> 0: node 0 ingested before going down).
    let live_only: u64 = (0..n)
        .map(|i| sim.honest_node(i).pipeline_stats().ingested)
        .sum();
    assert!(
        sim.pipeline_report().stages.ingested > live_only,
        "pre-crash pipeline counters lost from the aggregate"
    );
}
