//! Per-round measurements recorded by each node.
//!
//! These are the raw samples behind the paper's evaluation figures: round
//! completion time (Figures 5, 6, 8), the proposal/BA⋆/final-step breakdown
//! (Figure 7), and step-count distributions (§7's efficiency claims).

use crate::verify::PipelineVerifier;
use algorand_ba::{ConsensusKind, Micros};
use algorand_obs::{Histogram, Registry};

/// One node's record of one completed round.
#[derive(Clone, Copy, Debug)]
pub struct RoundRecord {
    /// The round number.
    pub round: u64,
    /// When this node began the round (started waiting for proposals).
    pub started: Micros,
    /// When this node handed a block to BA⋆ (end of block proposal).
    pub ba_started: Micros,
    /// When BinaryBA⋆ concluded (before the final count).
    pub binary_done: Micros,
    /// When the round completed (block appended).
    pub finished: Micros,
    /// Final or tentative.
    pub kind: ConsensusKind,
    /// The BinaryBA⋆ step at which agreement was reached.
    pub binary_step: u32,
    /// True if the round agreed on the empty block.
    pub empty: bool,
    /// Serialized size of the agreed block.
    pub block_bytes: usize,
}

impl RoundRecord {
    /// Total round latency for this node.
    pub fn total(&self) -> Micros {
        self.finished - self.started
    }

    /// Time spent in block proposal (waiting for priorities and the block).
    pub fn proposal_time(&self) -> Micros {
        self.ba_started - self.started
    }

    /// Time spent in BA⋆ before the final step.
    pub fn ba_without_final(&self) -> Micros {
        self.binary_done.saturating_sub(self.ba_started)
    }

    /// Time spent in BA⋆'s final step.
    pub fn final_step_time(&self) -> Micros {
        self.finished.saturating_sub(self.binary_done)
    }
}

/// Per-node counters for the staged message pipeline, one tick per
/// message per stage (ingest → verify → consume → emit).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Messages entering the ingest stage (decoded deliveries).
    pub ingested: u64,
    /// Dropped by ingest: wrong round, wrong phase, or stale.
    pub rejected_ingest: u64,
    /// Current-round votes buffered because BA⋆ has not started.
    pub buffered_early: u64,
    /// Votes buffered for a near-future round.
    pub buffered_future: u64,
    /// Messages that passed the verification stage.
    pub verified: u64,
    /// Messages the verification stage rejected.
    pub rejected_verify: u64,
    /// Gossip messages handed back to the driver by the emit stage.
    pub emitted: u64,
}

impl PipelineStats {
    /// Adds another node's counters into this one (fleet aggregation).
    pub fn merge(&mut self, other: &PipelineStats) {
        self.ingested += other.ingested;
        self.rejected_ingest += other.rejected_ingest;
        self.buffered_early += other.buffered_early;
        self.buffered_future += other.buffered_future;
        self.verified += other.verified;
        self.rejected_verify += other.rejected_verify;
        self.emitted += other.emitted;
    }
}

/// Per-node counters for everything that is not the steady round loop:
/// BA⋆ timeouts, catch-up (§8.3) and fork recovery (§8.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// BA⋆ step-timeout escalations.
    pub timeout_escalations: u64,
    /// §8.2 fork recoveries completed.
    pub recoveries_completed: u64,
    /// Rounds adopted via §8.3 catch-up.
    pub catchups_applied: u64,
    /// Tentative-fork suffixes rolled back by catch-up to adopt a longer
    /// certified chain (§8.2).
    pub catchup_reorgs: u64,
}

impl RecoveryStats {
    /// Adds another node's counters into this one (fleet aggregation).
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.timeout_escalations += other.timeout_escalations;
        self.recoveries_completed += other.recoveries_completed;
        self.catchups_applied += other.catchups_applied;
        self.catchup_reorgs += other.catchup_reorgs;
    }
}

/// Publishes the metrics every driver of a [`crate::Node`] exposes under
/// the same names — one node's counters on a real process, the fleet's
/// sums in the simulator — so the same dashboards and assertions read
/// both. Idempotent: gauges are overwritten and the histogram replaced.
pub fn publish_metrics(
    reg: &Registry,
    stages: &PipelineStats,
    verifier: &PipelineVerifier,
    recovery: &RecoveryStats,
    round_latencies: impl IntoIterator<Item = Micros>,
) {
    for (name, value) in [
        ("pipeline.ingested", stages.ingested),
        ("pipeline.verified", stages.verified),
        ("pipeline.rejected_verify", stages.rejected_verify),
        ("pipeline.emitted", stages.emitted),
        ("verify.cache_hits", verifier.cache_hits()),
        ("verify.cache_misses", verifier.cache_misses()),
        (
            "verify.unique_votes",
            verifier.unique_vote_verifications() as u64,
        ),
        ("recovery.timeout_escalations", recovery.timeout_escalations),
        ("recovery.fork_recoveries", recovery.recoveries_completed),
        ("recovery.catchups_applied", recovery.catchups_applied),
    ] {
        reg.gauge(name).set(value as i64);
    }
    let mut lat = Histogram::new();
    for us in round_latencies {
        lat.record(us);
    }
    reg.histogram("round.latency_us").replace(lat);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_stats_merge_sums_fields() {
        let mut a = PipelineStats {
            ingested: 10,
            rejected_ingest: 1,
            buffered_early: 2,
            buffered_future: 3,
            verified: 4,
            rejected_verify: 5,
            emitted: 6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.ingested, 20);
        assert_eq!(a.rejected_verify, 10);
        assert_eq!(a.emitted, 12);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let r = RoundRecord {
            round: 1,
            started: 100,
            ba_started: 300,
            binary_done: 900,
            finished: 1000,
            kind: ConsensusKind::Final,
            binary_step: 1,
            empty: false,
            block_bytes: 1 << 20,
        };
        assert_eq!(r.total(), 900);
        assert_eq!(r.proposal_time(), 200);
        assert_eq!(r.ba_without_final(), 600);
        assert_eq!(r.final_step_time(), 100);
        assert_eq!(
            r.proposal_time() + r.ba_without_final() + r.final_step_time(),
            r.total()
        );
    }
}
