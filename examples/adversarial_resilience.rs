//! Adversarial resilience demo: equivocation, double votes, and a
//! network partition, on one screen.
//!
//! Reproduces the §10.4 attack (a proposer sends different blocks to each
//! half of its peers while malicious committee members vote for both) and
//! then partitions the network, demonstrating the paper's safety claim:
//! honest users never finalize conflicting blocks, under either attack.
//!
//! Run with: `cargo run --release --example adversarial_resilience`

use algorand::sim::fuzz::{common_prefix, divergent_finality, min_tip};
use algorand::sim::{FaultSchedule, SimConfig, Simulation};

const MINUTE: u64 = 60 * 1_000_000;

/// The paper's safety claim, checked on the first `n_honest` nodes: no
/// two of them finalized different blocks for one round, and all agree
/// on one chain up to the least-advanced tip, which is returned.
fn agreed_rounds(sim: &Simulation, n_honest: usize) -> u64 {
    assert!(!divergent_finality(sim, n_honest), "SAFETY VIOLATION");
    assert!(
        common_prefix(sim, n_honest),
        "honest nodes on different forks"
    );
    min_tip(sim, n_honest)
}

fn main() {
    println!("== attack 1: 20% malicious stake, equivocating proposers (§10.4) ==");
    let n = 30;
    let mut cfg = SimConfig::new(n);
    cfg.n_malicious = 6;
    let mut sim = Simulation::new(cfg);
    sim.run_rounds(3, 30 * MINUTE);
    let agreed = agreed_rounds(&sim, n - 6);
    let equivocations = sim.adversary().lock().unwrap().equivocations.len();
    println!("  equivocation attacks mounted: {equivocations}");
    println!("  rounds every honest user agrees on: {agreed}");
    for r in 1..=3u64 {
        if let Some(stats) = sim.round_stats(r) {
            println!(
                "  round {r}: median {:.2} s, {:.0}% final, {:.0}% empty",
                stats.completion.median,
                stats.final_fraction * 100.0,
                stats.empty_fraction * 100.0
            );
        }
    }

    println!();
    println!("== attack 2: full network partition for 60 s ==");
    let n = 16;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 99;
    let mut sim = Simulation::new(cfg);
    sim.run_rounds(1, 10 * MINUTE);
    let before = sim.honest_node(0).chain().tip().round;
    let now = sim.now();
    sim.set_fault_schedule(FaultSchedule::new().bipartition(n, n / 2, now, now + MINUTE));
    sim.run_rounds(before + 2, 30 * MINUTE);
    agreed_rounds(&sim, n);
    let after = sim.honest_node(0).chain().tip().round;
    println!("  rounds before partition: {before}; after heal: {after}");
    println!("  no honest user finalized conflicting blocks at any point");
    assert!(after > before, "liveness must resume after the heal");
    println!();
    println!("both attacks tolerated: safety preserved, liveness restored.");
}
