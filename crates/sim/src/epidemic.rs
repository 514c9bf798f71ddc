//! Analytic large-scale model for the 500,000-user experiment (Figure 6).
//!
//! At 500 processes per VM the paper's testbed is bandwidth-bound — they
//! even replace signature verification with equal-duration sleeps — so
//! per-hop event simulation adds nothing but cost. This model computes
//! round latency from the same mechanics the event simulator implements
//! explicitly:
//!
//! * gossip dissemination takes `hops × (serialization + latency)` where
//!   hops is the random-graph diameter, logarithmic in the user count
//!   (§8.4, \[45\]);
//! * each BA⋆ step is one committee-vote dissemination;
//! * the common case takes the reduction (2 steps), BinaryBA⋆ step 1, and
//!   the final step (§7: "4 interactive steps").
//!
//! Bandwidth sharing is a parameter: Figure 6's configuration divides each
//! VM's 1 Gbit/s NIC among 500 processes, a ~12.5× tighter budget than the
//! 20 Mbit/s cap of Figure 5, which is why its latencies are ~4× higher.

use algorand_ba::{VoteMessage, T_STEP};
use algorand_core::AlgorandParams;

/// Effective per-message transmission redundancy after dedup.
///
/// A relay dials `fanout` peers but most already hold the message by the
/// time it forwards (duplicate suppression, §4); measurements of gossip
/// networks put the effective copies-per-node near 2.
const REDUNDANCY: f64 = 2.0;

/// Inputs to the analytic model.
#[derive(Clone, Copy, Debug)]
pub struct EpidemicConfig {
    /// Number of users.
    pub n_users: usize,
    /// Block size in bytes.
    pub block_bytes: usize,
    /// Effective per-process bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// Mean one-way latency between peers in seconds.
    pub mean_latency_s: f64,
    /// Gossip fan-out (each hop transmits to this many peers).
    pub fanout: usize,
    /// Expected committee size per step.
    pub tau_step: f64,
}

impl EpidemicConfig {
    /// The Figure 6 configuration for `n` users: 500 users/VM sharing a
    /// 1 Gbit/s NIC, paper-scale committees.
    pub fn figure6(n_users: usize) -> EpidemicConfig {
        let params = AlgorandParams::paper();
        EpidemicConfig {
            n_users,
            block_bytes: 1 << 20,
            bandwidth_bps: 1e9 / 500.0,
            mean_latency_s: 0.06,
            fanout: 8,
            tau_step: params.ba.tau_step,
        }
    }

    /// Gossip hops to reach (almost) every user: the diameter of a random
    /// graph with this fan-out, `⌈ln n / ln fanout⌉` \[45\].
    pub fn hops(&self) -> f64 {
        if self.n_users <= 1 {
            return 0.0;
        }
        ((self.n_users as f64).ln() / (self.fanout as f64).ln()).ceil()
    }

    /// Time to gossip a message of `bytes` to the whole network.
    ///
    /// Per hop a relay transmits the message to `fanout` peers over its
    /// own uplink (serialization) and the last copy must still propagate
    /// (latency).
    pub fn dissemination_s(&self, bytes: usize) -> f64 {
        let tx = (bytes as f64) * 8.0 * REDUNDANCY / self.bandwidth_bps;
        self.hops() * (tx + self.mean_latency_s)
    }

    /// Time for one BA⋆ voting step: committee votes disseminate to all.
    ///
    /// Votes from τ members travel concurrently; a step concludes once
    /// T_step of them have arrived, so the per-relay uplink carries T·τ
    /// vote copies.
    pub fn step_s(&self) -> f64 {
        let vote_bytes = VoteMessage::WIRE_SIZE;
        let tx =
            (vote_bytes as f64) * 8.0 * REDUNDANCY * self.tau_step * T_STEP / self.bandwidth_bps;
        self.hops() * self.mean_latency_s + tx
    }

    /// Common-case round latency: proposal wait + priority gossip + block
    /// dissemination + 3 vote steps (reduction ×2, BinaryBA⋆ step 1) +
    /// the final step.
    pub fn round_latency_s(&self, params: &AlgorandParams) -> f64 {
        let wait = params.proposal_wait() as f64 / 1e6;
        let block = self.dissemination_s(self.block_bytes);
        let steps = 3.0 * self.step_s();
        let final_step = self.step_s() * (params.ba.tau_final / self.tau_step.max(1.0));
        wait + block + steps + final_step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_grow_logarithmically() {
        let h50k = EpidemicConfig::figure6(50_000).hops();
        let h500k = EpidemicConfig::figure6(500_000).hops();
        assert!(h500k > h50k);
        assert!(h500k - h50k <= 2.0, "50k→500k adds ≤2 hops");
    }

    #[test]
    fn latency_nearly_flat_in_users() {
        // The Figure 6 headline: 10× the users costs only a small constant
        // factor in latency.
        let params = AlgorandParams::paper();
        let l50k = EpidemicConfig::figure6(50_000).round_latency_s(&params);
        let l500k = EpidemicConfig::figure6(500_000).round_latency_s(&params);
        assert!(l500k < l50k * 1.4, "l50k={l50k} l500k={l500k}");
        assert!(l500k > l50k, "more users must not be faster");
    }

    #[test]
    fn figure6_regime_slower_than_figure5_regime() {
        // Figure 6's latency is ~4× Figure 5's for the same user count,
        // because 500 processes share each VM's NIC.
        let params = AlgorandParams::paper();
        let fig6 = EpidemicConfig::figure6(50_000);
        let mut fig5 = fig6;
        fig5.bandwidth_bps = 20e6;
        let l6 = fig6.round_latency_s(&params);
        let l5 = fig5.round_latency_s(&params);
        assert!(l6 > 2.0 * l5, "fig6={l6} fig5={l5}");
    }

    #[test]
    fn bigger_blocks_take_longer() {
        let params = AlgorandParams::paper();
        let mut c = EpidemicConfig::figure6(50_000);
        let l1 = c.round_latency_s(&params);
        c.block_bytes = 10 << 20;
        let l10 = c.round_latency_s(&params);
        assert!(l10 > l1 + 1.0, "l1={l1} l10={l10}");
    }
}
