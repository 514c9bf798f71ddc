//! Catch-up protocol (§8.3): a node knocked offline re-syncs from
//! certificates instead of waiting for a full fork recovery.

use algorand_sim::{FaultSchedule, SimConfig, Simulation};

const MINUTE: u64 = 60 * 1_000_000;

#[test]
fn isolated_node_catches_up_after_rejoining() {
    let n = 16;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 51;
    let mut sim = Simulation::new(cfg);
    sim.run_rounds(1, 10 * MINUTE);

    // Cut node 0 off entirely for a window long enough that the network
    // moves ≥ 4 rounds ahead (beyond the vote-buffer window).
    let t_cut = sim.now();
    sim.set_fault_schedule(FaultSchedule::new().bipartition(n, 1, t_cut, t_cut + 20 * 1_000_000));
    sim.run_rounds(8, 20 * MINUTE);

    let network_round = sim.honest_node(5).chain().tip().round;
    assert!(network_round >= 6, "network made progress: {network_round}");

    let node0 = sim.honest_node(0);
    let round0 = node0.chain().tip().round;
    // The sim stops the moment every chain reaches the target, so node 0
    // may trail the fastest nodes by rounds still in flight; what matters
    // is that it crossed the gap it could never have voted through.
    assert!(
        round0 >= 8,
        "node 0 still behind after heal: {round0} vs {network_round}"
    );
    assert!(
        node0.recovery_stats().catchups_applied > 0,
        "node 0 should have re-synced via catch-up, not plain voting"
    );
    // And its chain is the network's chain.
    for r in 1..=round0.min(network_round) {
        assert_eq!(
            node0.chain().block_at(r).unwrap().hash(),
            sim.honest_node(5).chain().block_at(r).unwrap().hash(),
            "divergence at round {r}"
        );
    }
}

#[test]
fn catchup_preserves_transaction_state() {
    let n = 14;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 52;
    let mut sim = Simulation::new(cfg);
    // A payment confirmed while node 0 is offline must appear in its
    // caught-up state.
    sim.run_rounds(1, 10 * MINUTE);
    let t_cut = sim.now();
    sim.set_fault_schedule(FaultSchedule::new().bipartition(n, 1, t_cut, t_cut + 20 * 1_000_000));
    let tx = algorand_ledger::Transaction::payment(sim.keypair(2), sim.keypair(3).pk, 4, 1);
    for i in 1..n {
        sim.submit_transaction(i, tx.clone());
    }
    sim.run_rounds(8, 20 * MINUTE);
    let node0 = sim.honest_node(0).chain();
    assert!(
        node0.confirmed_round(&tx.id()).is_some(),
        "node 0 must learn the offline-era payment via catch-up"
    );
    assert_eq!(node0.accounts().balance(&sim.keypair(3).pk), 14);
}
