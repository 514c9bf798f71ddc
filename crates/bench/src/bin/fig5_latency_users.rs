//! Figure 5: round latency as the number of users grows (paper: 5,000 to
//! 50,000 users, 1 MB blocks, ~12 s rounds, near-constant in user count).
//!
//! The simulated sweep is scaled down (see DESIGN.md §4): user counts in
//! the hundreds, committee sizes from `AlgorandParams::scaled`, and a
//! 64 KB block so the sweep completes in CI time. The property under test
//! is the *shape*: latency stays nearly flat as users grow, because
//! committee sizes — and hence message counts per user — are independent
//! of the population, and gossip depth grows only logarithmically.

use algorand_bench::{fmt_percentiles, header, mean_completion, run_experiment};
use algorand_sim::SimConfig;

fn main() {
    header(
        "Figure 5 — round latency vs number of users",
        "5k→50k users at 1 MB blocks: ~12 s median, flat in user count",
    );
    let rounds = 3;
    let user_counts = [50usize, 100, 200, 400, 800];
    println!(
        "{:>7} {:>8}   {:>6} {:>6} {:>6} {:>6} {:>6}",
        "users", "rounds", "min", "p25", "median", "p75", "max"
    );
    let mut medians = Vec::new();
    for &n in &user_counts {
        let mut cfg = SimConfig::new(n);
        cfg.payload_bytes = 64 * 1024;
        cfg.seed = 11;
        let (_sim, stats) = run_experiment(cfg, rounds);
        let p = mean_completion(&stats);
        println!("{:>7} {:>8}   {}", n, stats.len(), fmt_percentiles(&p));
        medians.push(p.median);
    }
    println!();
    let first = medians.first().copied().unwrap_or(f64::NAN);
    let last = medians.last().copied().unwrap_or(f64::NAN);
    println!(
        "scaling check: median at {} users = {:.2}s, at {} users = {:.2}s ({}x users -> {:.2}x latency)",
        user_counts[0],
        first,
        user_counts[user_counts.len() - 1],
        last,
        user_counts[user_counts.len() - 1] / user_counts[0],
        last / first
    );
    println!("paper: latency nearly constant from 5k to 50k users");
}
