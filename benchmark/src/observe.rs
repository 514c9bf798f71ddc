//! What a run publishes, gathered into one shape for both the simulator
//! (registry + reports) and a real node (its `metrics.txt` exposition).

use algorand_obs::expose;
use std::collections::HashMap;

/// The samples of one exposition: totals by name, labeled series kept
/// as parsed.
#[derive(Default)]
pub struct Exposition {
    totals: HashMap<String, f64>,
    labeled: Vec<expose::Sample>,
}

impl Exposition {
    /// Parses `name{labels} value` exposition text.
    ///
    /// # Errors
    ///
    /// Returns the parser's message for malformed text.
    pub fn parse(text: &str) -> Result<Exposition, String> {
        let (totals, labeled): (Vec<_>, Vec<_>) = expose::parse(text)?
            .into_iter()
            .partition(|s| s.labels.is_empty());
        Ok(Exposition {
            totals: totals
                .into_iter()
                .map(|s| (s.name, s.value as f64))
                .collect(),
            labeled,
        })
    }

    /// The unlabeled sample `name`, or 0 when the run never published it
    /// (a counter that was never incremented is simply absent).
    pub fn get(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// The sample `name{key="value"}`, or 0 when absent.
    pub fn labeled(&self, name: &str, key: &str, value: &str) -> f64 {
        self.labeled
            .iter()
            .find(|s| s.name == name && s.label(key) == Some(value))
            .map_or(0.0, |s| s.value as f64)
    }
}

/// Work counts of one run, summed over its nodes. These are the `count`
/// in every `est_s = unit × count` of the per-layer ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    /// Honest nodes (processes on `localnet`).
    pub nodes: f64,
    /// Rounds every node finished.
    pub rounds: f64,
    /// `(node, round)` pairs finished: `nodes × rounds` unless a node ran
    /// ahead of the target.
    pub node_rounds: f64,
    /// Messages entering each node's ingest stage.
    pub ingested: f64,
    pub rejected_ingest: f64,
    /// Messages that passed the verification stage.
    pub verified: f64,
    pub emitted: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    /// Distinct vote verifications (cold path).
    pub cold_votes: f64,
    /// Distinct priority/block verifications (cold path).
    pub cold_proposals: f64,
    /// Gossip deliveries seen for the first time.
    pub relay_new: f64,
    /// Gossip deliveries dropped as duplicates.
    pub relay_dup: f64,
    pub pool_admitted: f64,
    pub pool_rejected: f64,
    /// Payments in the agreed chain (one copy).
    pub committed: f64,
    /// Agreed blocks that carry at least one payment.
    pub payment_blocks: f64,
    /// Bytes put on the (simulated or loopback) wire, all nodes.
    pub bytes_sent: f64,
    /// Mean BinaryBA⋆ step at which rounds concluded.
    pub final_step_mean: f64,
    /// Transport frames (real nodes only).
    pub frames_sent: f64,
    pub frames_received: f64,
    pub wal_entries: f64,
    pub send_drops: f64,
    pub decode_failures: f64,
}

impl Counts {
    /// Gossip deliveries that reached a node's relay filter.
    pub fn relay_received(&self) -> f64 {
        self.relay_new + self.relay_dup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_reads_totals_and_skips_labeled_series() {
        let e = Exposition::parse(
            "transport.frames_sent 210\ntransport.frames_sent{kind=\"gossip\"} 158\n\
             node.tip_hash64 -5\n",
        )
        .unwrap();
        assert_eq!(e.get("transport.frames_sent"), 210.0);
        assert_eq!(e.labeled("transport.frames_sent", "kind", "gossip"), 158.0);
        assert_eq!(e.labeled("transport.frames_sent", "kind", "hello"), 0.0);
        assert_eq!(e.get("node.tip_hash64"), -5.0);
        assert_eq!(e.get("never.published"), 0.0);
        assert!(Exposition::parse("no-value-here").is_err());
    }
}
