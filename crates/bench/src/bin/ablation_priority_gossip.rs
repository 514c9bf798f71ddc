//! Ablation: priority messages and the block-discard rule (§6).
//!
//! Sortition selects τ_proposer = 26 expected proposers, each gossiping a
//! full block. The paper's mitigation: a small priority-and-proof message
//! propagates first, and "users discard messages about blocks that do not
//! have the highest priority seen by that user so far." This harness runs
//! the same workload with the discard rule on (paper behaviour) and off
//! (every block relayed everywhere) and compares bytes on the wire.

use algorand_bench::{header, mean_median_completion, run_experiment};
use algorand_sim::SimConfig;

fn run(relay_all: bool) -> (f64, f64) {
    let mut cfg = SimConfig::new(60);
    cfg.payload_bytes = 256 << 10;
    cfg.relay_all_blocks = relay_all;
    cfg.seed = 37;
    let rounds = 3;
    let (sim, stats) = run_experiment(cfg, rounds);
    let mb = sim.network().total_bytes_sent() as f64 / 1e6;
    (mb, mean_median_completion(&stats))
}

fn main() {
    header(
        "Ablation — priority gossip & highest-priority block discard (§6)",
        "discarding non-best blocks avoids relaying ~tau_proposer full blocks per round",
    );
    println!("workload: 60 users, 256 KB blocks, 3 rounds");
    let (mb_discard, lat_discard) = run(false);
    println!(
        "  WITH discard rule (paper): {mb_discard:>8.1} MB gossiped, median round {lat_discard:.2} s"
    );
    let (mb_all, lat_all) = run(true);
    println!("  WITHOUT (relay all):       {mb_all:>8.1} MB gossiped, median round {lat_all:.2} s");
    println!();
    println!(
        "bandwidth saved by the rule: {:.1}x less block traffic",
        mb_all / mb_discard.max(0.001)
    );
}
