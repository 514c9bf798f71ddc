//! The evaluation harness: regenerates every table and figure of §10.
//!
//! Two kinds of binary live in `src/bin/`. The `fig*` / `tput*` / `costs`
//! / `timeout*` / `ba_steps` / `ablation_*` bins each reproduce one
//! experiment of the paper's evaluation: a pure function of the seeds
//! compiled into it to stdout, checked in as `results/<bin>.txt`
//! (`scripts/ci.sh` reruns the quick ones and diffs). The rest are CI gates
//! (`scale_smoke`, `localnet`, `chaos_determinism`, …). This library holds
//! what they share. Absolute numbers differ from the paper — our
//! substrate is a discrete-event simulator, not 1,000 EC2 VMs — but each
//! bin prints the paper's reference values next to the measured ones so
//! the *shape* (who wins, scaling trends, crossovers) can be compared
//! directly.
//!
//! Nothing here says how fast this implementation runs: that is
//! `benchmark/` (workloads, gated end-to-end metrics, a per-layer
//! ledger). `benches/crypto_micro` times only the primitives the ledger
//! has no name for. `results/README.md` has the regeneration loop.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod timing;

use algorand_sim::{Percentiles, RoundStats, SimConfig, Simulation};

/// Virtual-time cap for a single simulated experiment.
pub const T_CAP: u64 = 60 * 60 * 1_000_000;

/// Prints a section header in a uniform style.
pub fn header(title: &str, paper_ref: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("  paper reference: {paper_ref}");
    println!("================================================================");
}

/// Formats a five-number summary as `min/p25/median/p75/max` seconds.
pub fn fmt_percentiles(p: &Percentiles) -> String {
    format!(
        "{:6.2} {:6.2} {:6.2} {:6.2} {:6.2}",
        p.min, p.p25, p.median, p.p75, p.max
    )
}

/// Runs one simulation and returns per-round aggregated stats.
///
/// Rounds 1..=`rounds` are measured; the simulation is capped at
/// [`T_CAP`] virtual time.
pub fn run_experiment(cfg: SimConfig, rounds: u64) -> (Simulation, Vec<RoundStats>) {
    let mut sim = Simulation::new(cfg);
    sim.run_rounds(rounds, T_CAP);
    let stats: Vec<RoundStats> = (1..=rounds).filter_map(|r| sim.round_stats(r)).collect();
    (sim, stats)
}

/// Runs the seed-23 payment workload the `trace` bin's `report`, `paths`
/// and `check` read: 50 users, 200 payments offered at 25 tx/s, 8 rounds.
/// (Tier-1 `tests/txpool_e2e.rs` gates the same population at 500
/// payments.)
pub fn run_payment_workload(trace: bool) -> Simulation {
    let mut cfg = SimConfig::new(50);
    cfg.stake_per_user = 50;
    cfg.tx_rate = 25.0;
    cfg.tx_total = 200;
    cfg.seed = 23;
    cfg.trace = trace;
    let mut sim = Simulation::new(cfg);
    sim.run_rounds(8, T_CAP);
    sim
}

/// Mean of `f` over the measured rounds: one scalar per configuration, as
/// the figures' x-axis sweeps need. NaN when no round was measured.
pub fn round_mean(stats: &[RoundStats], f: impl Fn(&RoundStats) -> f64) -> f64 {
    stats.iter().map(f).sum::<f64>() / stats.len() as f64
}

/// Mean of the per-round completion medians.
pub fn mean_median_completion(stats: &[RoundStats]) -> f64 {
    round_mean(stats, |s| s.completion.median)
}

/// The completion five-number summary (and p99), each averaged over the
/// measured rounds.
pub fn mean_completion(stats: &[RoundStats]) -> Percentiles {
    let avg = |f: fn(&Percentiles) -> f64| round_mean(stats, |s| f(&s.completion));
    Percentiles {
        min: avg(|p| p.min),
        p25: avg(|p| p.p25),
        median: avg(|p| p.median),
        p75: avg(|p| p.p75),
        p99: avg(|p| p.p99),
        max: avg(|p| p.max),
    }
}

/// Bitcoin's throughput baseline used by §10.2: a 1 MB block every 10
/// minutes = 6 MB of transactions per hour.
pub const BITCOIN_MB_PER_HOUR: f64 = 6.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_median_handles_empty() {
        assert!(mean_median_completion(&[]).is_nan());
    }

    #[test]
    fn percentile_formatting_is_stable() {
        let p = Percentiles {
            min: 1.0,
            p25: 2.0,
            median: 3.0,
            p75: 4.0,
            p99: 4.9,
            max: 5.0,
        };
        assert_eq!(fmt_percentiles(&p).split_whitespace().count(), 5);
    }
}
