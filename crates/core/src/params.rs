//! The full Algorand parameter set (Figure 4), plus simulation scaling
//! and the derivations every deployment of one `(seed, n_users, stake)`
//! shares: keys, genesis, and the invariant monitor's bounds. The
//! simulator and the real-process node both take them from here, which
//! is what makes process `i` of a localhost deployment *be* user `i` of
//! the simulator's run and lets their chain digests be compared.

use algorand_ba::{BaParams, Micros, SECOND};
use algorand_crypto::Keypair;
use algorand_ledger::{Blockchain, ChainParams};
use algorand_obs::MonitorConfig;
use algorand_sortition::binomial::binomial_cdf;

/// Genesis seed shared by every node of every deployment (and by
/// restarts).
pub const GENESIS_SEED: [u8; 32] = [0x47u8; 32];

/// Assumed fraction of honest weighted users (h; Figure 4: 80%), the
/// value behind Figure 4's committee sizes and thresholds.
pub const HONEST_FRACTION: f64 = 0.80;

/// The deterministic keypair of every user of a deployment.
pub fn derive_keypairs(seed: u64, n_users: usize) -> Vec<Keypair> {
    (0..n_users)
        .map(|i| {
            let mut s = [0u8; 32];
            s[..8].copy_from_slice(&(seed ^ 0x5eed).to_le_bytes());
            s[8..16].copy_from_slice(&(i as u64 + 1).to_le_bytes());
            Keypair::from_seed(s)
        })
        .collect()
}

/// Smallest `k` whose binomial upper tail `P[Binomial(W, τ/W) > k]` falls
/// below ~1e-12 — the §7.5 bound the monitor enforces on the
/// deduplicated committee weight of any (round, step).
fn committee_upper_bound(total_weight: u64, tau: f64) -> u64 {
    let w = total_weight.max(1);
    let p = (tau / w as f64).min(1.0);
    let mut k = (tau as u64).min(w);
    while k < w && 1.0 - binomial_cdf(k, w, p) >= 1e-12 {
        k += 1;
    }
    k
}

/// All implementation parameters of Figure 4, plus the chain-level ones.
#[derive(Clone, Copy, Debug)]
pub struct AlgorandParams {
    /// Expected number of block proposers (τ_proposer; paper: 26).
    pub tau_proposer: f64,
    /// BA⋆ committee and timing parameters.
    pub ba: BaParams,
    /// Seed refresh interval, look-back, timestamp skew.
    pub chain: ChainParams,
    /// Time to gossip sortition proofs (λ_priority; paper: 5 s).
    pub lambda_priority: Micros,
    /// Estimate of BA⋆ completion-time variance (λ_stepvar; paper: 5 s).
    pub lambda_stepvar: Micros,
    /// Interval of the loosely-synchronized-clock recovery trigger (§8.2;
    /// "every hour" in the paper).
    pub recovery_interval: Micros,
}

impl AlgorandParams {
    /// The paper's production parameters (Figure 4).
    pub fn paper() -> AlgorandParams {
        AlgorandParams {
            tau_proposer: 26.0,
            ba: BaParams::paper(),
            chain: ChainParams::paper(),
            lambda_priority: 5 * SECOND,
            lambda_stepvar: 5 * SECOND,
            recovery_interval: 3600 * SECOND,
        }
    }

    /// Parameters scaled for laptop-sized simulations.
    ///
    /// The paper's committees (τ_step = 2000, τ_final = 10000) assume tens
    /// of thousands of users. Simulations with `n` users keep the protocol
    /// *shape* — thresholds, step structure, timeout ratios — while scaling
    /// committee sizes down so that a committee is a minority of users but
    /// large enough that honest-majority thresholds are crossed reliably.
    /// The violation probability is correspondingly higher than 5×10⁻⁹;
    /// that affects how often a simulated round retries a step, not the
    /// protocol logic under test.
    pub fn scaled(n_users: usize) -> AlgorandParams {
        Self::scaled_with_stake(n_users, 10)
    }

    /// Like [`AlgorandParams::scaled`], with an explicit per-user stake.
    ///
    /// Committee sizes must be set against *sub-users* (currency units),
    /// not users: the threshold margin in standard deviations is
    /// `(1 − T)·√τ`, so τ must be large enough that honest committees
    /// cross `T·τ` reliably. τ = W/2 (capped at 250 to bound per-step
    /// message counts at large n) gives a ≥ 4.5σ margin everywhere.
    pub fn scaled_with_stake(n_users: usize, stake_per_user: u64) -> AlgorandParams {
        let mut p = AlgorandParams::paper();
        let total = (n_users as u64 * stake_per_user) as f64;
        let tau_step = (total * 0.5).clamp(10.0, 250.0);
        let tau_final = (total * 0.6).clamp(12.0, 300.0);
        p.tau_proposer = ((n_users as f64) * 0.3).clamp(5.0, 26.0);
        p.ba.tau_step = tau_step;
        p.ba.tau_final = tau_final;
        // Timeouts shrink to keep simulated rounds short; ratios match the
        // paper (λ_block : λ_step : λ_priority = 12 : 4 : 1).
        p.ba.lambda_step = 4 * SECOND;
        p.ba.lambda_block = 12 * SECOND;
        p.lambda_priority = SECOND;
        p.lambda_stepvar = SECOND;
        p.chain = ChainParams {
            seed_refresh_interval: 10,
            weight_lookback: 2,
            max_timestamp_skew: 3600 * SECOND,
            canonical_timestamps: false,
        };
        p.recovery_interval = 120 * SECOND;
        p
    }

    /// The genesis chain of a deployment: `stake_per_user` currency units
    /// to each of `keypairs` (equal split, as in §10).
    pub fn genesis(&self, keypairs: &[Keypair], stake_per_user: u64) -> Blockchain {
        let alloc = keypairs.iter().map(|k| (k.pk, stake_per_user));
        Blockchain::new(self.chain, alloc, GENESIS_SEED)
    }

    /// The invariant-monitor thresholds a population of `total_weight`
    /// currency units implies (§7.5 tail bounds), of which `honest_nodes`
    /// users are expected to finalize every round.
    pub fn monitor_config(&self, total_weight: u64, honest_nodes: usize) -> MonitorConfig {
        MonitorConfig {
            committee_hi_step: committee_upper_bound(total_weight, self.ba.tau_step),
            committee_hi_final: committee_upper_bound(total_weight, self.ba.tau_final),
            max_future_gap: crate::ingest::FUTURE_ROUND_WINDOW as u32,
            max_future_buffer: crate::round::FutureVotes::MAX_TOTAL as u64,
            honest_nodes: honest_nodes as u32,
        }
    }

    /// The proposal wait before adopting a highest-priority block (§6):
    /// λ_priority + λ_stepvar.
    pub fn proposal_wait(&self) -> Micros {
        self.lambda_priority + self.lambda_stepvar
    }

    /// How long the gossip relay's per-⟨key, round, step⟩ slots may sit
    /// without round progress before rotating anyway (4λ_step).
    ///
    /// During a liveness stall the round stops advancing, so round-based
    /// slot pruning alone would pin each sender's first vote per step
    /// forever and drop every §8.2 recovery retry as an equivocation.
    /// Several λ_step comfortably exceeds any healthy round's step
    /// cadence, so in normal operation the round advances first and this
    /// horizon never fires.
    pub fn relay_stall_horizon(&self) -> Micros {
        4 * self.ba.lambda_step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_ba::T_STEP;

    #[test]
    fn paper_values_match_figure4() {
        let p = AlgorandParams::paper();
        assert_eq!(p.tau_proposer, 26.0);
        assert_eq!(p.chain.seed_refresh_interval, 1000);
        assert_eq!(p.lambda_priority, 5 * SECOND);
        assert_eq!(p.lambda_stepvar, 5 * SECOND);
        assert_eq!(p.proposal_wait(), 10 * SECOND);
    }

    #[test]
    fn scaled_committees_are_bounded_by_stake() {
        for n in [10usize, 50, 100, 1000] {
            let p = AlgorandParams::scaled(n);
            let total_stake = (n * 10) as f64;
            assert!(p.ba.tau_step <= total_stake, "n={n}");
            assert!(p.ba.tau_step >= 10.0, "n={n}");
            assert!(p.ba.tau_final >= p.ba.tau_step);
            assert!(p.tau_proposer >= 1.0);
            // The threshold margin must be at least ~3σ so simulated steps
            // conclude on votes, not timeouts: votes ~ Binomial(W, τ/W)
            // with variance τ(1−τ/W).
            let sel_p = p.ba.tau_step / total_stake;
            let sigma = (p.ba.tau_step * (1.0 - sel_p)).sqrt();
            let margin = (1.0 - T_STEP) * p.ba.tau_step / sigma;
            assert!(margin > 3.0, "n={n} margin={margin}");
        }
    }

    #[test]
    fn committee_bound_is_at_least_tau() {
        assert!(committee_upper_bound(10_000, 250.0) >= 250);
        assert!(committee_upper_bound(10_000, 250.0) < 10_000);
    }

    #[test]
    fn scaled_keeps_timeout_ordering() {
        let p = AlgorandParams::scaled(100);
        assert!(p.ba.lambda_block > p.ba.lambda_step);
        assert!(p.ba.lambda_step > p.lambda_priority);
    }
}
