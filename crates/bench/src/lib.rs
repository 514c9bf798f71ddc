//! The benchmark harness: regenerates every table and figure of §10.
//!
//! Each `fig*`/`tput*`/`costs`/`timeout*` binary in `src/bin/` reproduces
//! one experiment from the paper's evaluation; this library holds the
//! shared machinery (experiment runners, table printing, paper reference
//! values). Absolute numbers differ from the paper — our substrate is a
//! discrete-event simulator, not 1,000 EC2 VMs — but each binary prints
//! the paper's reference values next to the measured ones so the *shape*
//! (who wins, scaling trends, crossovers) can be compared directly.
//!
//! Run everything with:
//!
//! ```text
//! for b in fig3_committee_size fig4_params fig5_latency_users \
//!          fig6_latency_largescale fig7_blocksize fig8_malicious \
//!          tput_throughput costs timeout_validation ba_steps; do
//!     cargo run --release -p algorand-bench --bin $b
//! done
//! ```

pub mod ablation;
pub mod baseline;
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

/// Means of the per-round medians: one scalar per configuration, as the
/// figures' x-axis sweeps need.
pub fn mean_median_completion(stats: &[RoundStats]) -> f64 {
    if stats.is_empty() {
        return f64::NAN;
    }
    stats.iter().map(|s| s.completion.median).sum::<f64>() / stats.len() as f64
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
