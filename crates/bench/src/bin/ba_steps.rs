//! §7 efficiency: BA⋆ step counts.
//!
//! The paper: with strong synchrony and an honest highest-priority
//! proposer, BA⋆ terminates in exactly 4 interactive steps (reduction ×2,
//! BinaryBA⋆ step 1, final); a malicious highest-priority proposer costs
//! an expected 11 BinaryBA⋆ steps worst case (13 total). This harness
//! measures the BinaryBA⋆ concluding-step distribution with and without
//! the §10.4 adversary.

use algorand_bench::{header, run_experiment};
use algorand_sim::SimConfig;
use std::collections::BTreeMap;

fn distribution(cfg: SimConfig, rounds: u64) -> BTreeMap<u32, usize> {
    let (sim, _) = run_experiment(cfg, rounds);
    let mut dist = BTreeMap::new();
    for records in sim.honest_records() {
        for r in records {
            *dist.entry(r.binary_step).or_insert(0) += 1;
        }
    }
    dist
}

fn print_dist(label: &str, dist: &BTreeMap<u32, usize>) {
    let total: usize = dist.values().sum();
    println!("{label}:");
    for (step, count) in dist {
        println!(
            "  BinaryBA* concluded at step {step}: {count:>5} ({:.1}%)",
            *count as f64 / total.max(1) as f64 * 100.0
        );
    }
}

fn main() {
    header(
        "§7 — BA* step counts (common case vs adversarial proposer)",
        "honest proposer: 4 interactive steps (BinaryBA* step 1); malicious: expected ≤11 binary steps",
    );
    let mut honest = SimConfig::new(40);
    honest.seed = 31;
    let honest_dist = distribution(honest, 4);
    print_dist("all honest", &honest_dist);
    println!();

    let mut attacked = SimConfig::new(40);
    attacked.n_malicious = 8; // 20%.
    attacked.seed = 31;
    let attacked_dist = distribution(attacked, 4);
    print_dist("20% malicious (equivocation attack)", &attacked_dist);
    println!();

    let frac_step1 = *honest_dist.get(&1).unwrap_or(&0) as f64
        / honest_dist.values().sum::<usize>().max(1) as f64;
    println!(
        "shape check: honest runs conclude at step 1 in {:.0}% of rounds (paper: always, under strong synchrony)",
        frac_step1 * 100.0
    );
    let max_attacked = attacked_dist.keys().max().copied().unwrap_or(0);
    println!(
        "shape check: under attack the worst observed concluding step was {max_attacked} (paper bound: expected 11)"
    );
}
