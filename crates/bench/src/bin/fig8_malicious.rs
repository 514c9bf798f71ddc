//! Figure 8: round latency vs the fraction of malicious users.
//!
//! The paper's attack (§10.4): the highest-priority proposer equivocates
//! (one block version to half its peers, another to the rest) and
//! malicious committee members vote for both versions. Result: latency is
//! "not significantly affected" from 0% to 20% malicious weight.

use algorand_bench::{fmt_percentiles, header, mean_completion, run_experiment};
use algorand_sim::SimConfig;

fn main() {
    header(
        "Figure 8 — round latency vs fraction of malicious users",
        "0..20% malicious: latency not significantly affected (~12 s)",
    );
    let n_users = 60;
    let rounds = 3;
    println!(
        "{:>11} {:>8}   {:>6} {:>6} {:>6} {:>6} {:>6}",
        "malicious", "rounds", "min", "p25", "median", "p75", "max"
    );
    let mut medians = Vec::new();
    for pct in [0usize, 5, 10, 15, 20] {
        let mut cfg = SimConfig::new(n_users);
        cfg.n_malicious = n_users * pct / 100;
        cfg.payload_bytes = 16 * 1024;
        cfg.seed = 17;
        let (_sim, stats) = run_experiment(cfg, rounds);
        let p = mean_completion(&stats);
        println!("{:>10}% {:>8}   {}", pct, stats.len(), fmt_percentiles(&p));
        medians.push(p.median);
    }
    println!();
    let clean = medians[0];
    let attacked = medians[medians.len() - 1];
    println!(
        "shape check: median latency {:.2}s (0% malicious) vs {:.2}s (20% malicious): {:.2}x",
        clean,
        attacked,
        attacked / clean
    );
    println!("paper: Algorand is not significantly affected by this attack");
}
