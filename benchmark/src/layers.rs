//! The per-layer ledger: unit costs from the probes times work counts
//! from the run, `est_s = unit × count`, as a share of the run's CPU.
//!
//! A layer's own time excludes the layers it calls: `core` is charged
//! for a cold vote verification minus the signature and sortition checks
//! inside it, `txpool` for an admission minus its signature check, and
//! so on. The counts are what the run already publishes; where the run
//! publishes no count the model says what it assumes (README, "How the
//! shares are computed"). Nothing here is a measurement of time spent —
//! it is an estimate, and `1 − attr.explained` is what it cannot name.

use crate::observe::Counts;
use crate::probes::UnitCosts;
use std::collections::BTreeMap;

/// Estimated seconds of CPU per layer for one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Estimate {
    pub crypto: f64,
    pub sortition: f64,
    pub core: f64,
    pub ba: f64,
    pub gossip: f64,
    pub txpool: f64,
    pub ledger: f64,
    pub node: f64,
    /// The part of `crypto` spent checking payment signatures, wherever
    /// the check was made. Not a layer: with `txpool` and `ledger` it is
    /// what a payment costs end to end.
    pub payment_sigs: f64,
}

/// Applies the model. `block_txs` is the block length the ledger and
/// txpool probes ran at.
pub fn estimate(u: &UnitCosts, c: &Counts, block_txs: usize) -> Estimate {
    let us = |name: &str| u[name] * 1e-6;
    let ns = |name: &str| u[name] * 1e-9;
    // A negative remainder means the callee probes cost more than the
    // caller's: the caller adds nothing measurable of its own.
    let own = |whole: f64, callees: f64| (whole - callees).max(0.0);
    let l = block_txs.max(1) as f64;

    let sig_verify = us("crypto.sig_verify_us");
    let vrf_verify = us("crypto.vrf_verify_us");
    let vrf_prove = us("crypto.vrf_prove_us");
    let sort_verify = us("sortition.verify_us");
    let sort_select = us("sortition.select_us");

    // Every cold verification checks one signature and one sortition
    // proof. A node draws sortition once per round as proposer and once
    // per step it enters: two reduction steps, the binary steps, final.
    let cold = c.cold_votes + c.cold_proposals;
    let selects = c.node_rounds * (4.0 + c.final_step_mean);
    // A payment's signature is checked on admission (once per node) and,
    // uncached, whenever a ledger state applies it: validating the
    // received block, then validating and applying again in `append`.
    let ledger_applies = 3.0 * c.committed * c.nodes;
    // Each proposer's priority and block message are both verified cold
    // once, so half the cold proposals are assembled blocks.
    let blocks_assembled = c.cold_proposals / 2.0;

    Estimate {
        crypto: sig_verify * (cold + c.pool_admitted + ledger_applies)
            + vrf_verify * cold
            + vrf_prove * selects
            + us("crypto.sig_sign_us") * c.emitted,
        sortition: own(sort_verify, vrf_verify) * cold + own(sort_select, vrf_prove) * selects,
        core: own(us("core.verify_vote_cold_us"), sig_verify + sort_verify) * c.cold_votes
            + own(us("core.verify_block_cold_us"), vrf_verify) * c.cold_proposals
            + us("core.verify_vote_warm_us") * c.cache_hits
            + ns("core.wire_encode_ns") * c.frames_sent
            + ns("core.wire_decode_ns") * c.frames_received,
        ba: us("ba.on_vote_us") * c.verified,
        gossip: ns("gossip.classify_new_ns") * c.relay_new
            + ns("gossip.classify_dup_ns") * c.relay_dup,
        txpool: own(us("txpool.admit_us"), sig_verify) * c.pool_admitted
            + us("txpool.admit_dup_us") * c.pool_rejected
            + own(us("txpool.take_block_us"), l * sig_verify) * blocks_assembled
            + us("txpool.prune_us") * c.node_rounds,
        ledger: (own(us("ledger.validate_block_us"), l * sig_verify)
            + own(us("ledger.append_us"), 2.0 * l * sig_verify))
            / l
            * c.committed
            * c.nodes,
        node: ns("node.frame_encode_ns") * c.frames_sent
            + ns("node.frame_decode_ns") * c.frames_received
            + us("node.wal_append_us") * c.wal_entries,
        payment_sigs: sig_verify * (c.pool_admitted + ledger_applies),
    }
}

impl Estimate {
    /// The `*.share` metrics and `attr.explained`, against `cpu_s`.
    pub fn shares(&self, cpu_s: f64) -> BTreeMap<&'static str, f64> {
        let parts = [
            ("crypto.share", self.crypto),
            ("sortition.share", self.sortition),
            ("core.share", self.core),
            ("ba.share", self.ba),
            ("gossip.share", self.gossip),
            ("txpool.share", self.txpool),
            ("ledger.share", self.ledger),
            ("node.share", self.node),
        ];
        let mut out: BTreeMap<&'static str, f64> =
            parts.iter().map(|(k, s)| (*k, s / cpu_s)).collect();
        out.insert("attr.explained", out.values().sum());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units() -> UnitCosts {
        [
            ("crypto.sig_verify_us", 100.0),
            ("crypto.sig_sign_us", 60.0),
            ("crypto.vrf_verify_us", 300.0),
            ("crypto.vrf_prove_us", 200.0),
            ("sortition.verify_us", 350.0),
            ("sortition.select_us", 240.0),
            ("core.verify_vote_cold_us", 470.0),
            ("core.verify_vote_warm_us", 1.0),
            ("core.verify_block_cold_us", 290.0),
            ("core.wire_encode_ns", 500.0),
            ("core.wire_decode_ns", 700.0),
            ("ba.on_vote_us", 2.0),
            ("gossip.classify_new_ns", 400.0),
            ("gossip.classify_dup_ns", 100.0),
            ("txpool.admit_us", 110.0),
            ("txpool.admit_dup_us", 0.5),
            ("txpool.take_block_us", 1200.0),
            ("txpool.prune_us", 3.0),
            ("ledger.validate_block_us", 1050.0),
            ("ledger.append_us", 2100.0),
            ("node.frame_encode_ns", 50.0),
            ("node.frame_decode_ns", 80.0),
            ("node.wal_append_us", 1500.0),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn a_layers_own_time_excludes_its_callees() {
        let c = Counts {
            nodes: 2.0,
            node_rounds: 4.0,
            cold_votes: 10.0,
            committed: 10.0,
            pool_admitted: 20.0,
            ..Counts::default()
        };
        let e = estimate(&units(), &c, 10);
        // core: (470 − 100 − 350) µs × 10 cold votes.
        assert!((e.core - 200e-6).abs() < 1e-12);
        // sortition: (350 − 300) × 10 verifies + (240 − 200) × 16 selects.
        assert!((e.sortition - (500e-6 + 640e-6)).abs() < 1e-12);
        // txpool: (110 − 100) × 20 admissions + 3 × 4 prunes.
        assert!((e.txpool - (200e-6 + 12e-6)).abs() < 1e-12);
        // ledger: ((1050 − 1000) + (2100 − 2000)) / 10 per payment × 20.
        assert!((e.ledger - 300e-6).abs() < 1e-12);
        // crypto holds every signature check the others shed:
        // 10 votes + 20 admissions + 3 × 20 ledger applies.
        let sigs = 100e-6 * 90.0;
        assert!((e.crypto - (sigs + 300e-6 * 10.0 + 200e-6 * 16.0)).abs() < 1e-12);
        assert_eq!(e.node, 0.0);
        assert!((e.payment_sigs - 100e-6 * 80.0).abs() < 1e-12);

        let shares = e.shares(0.1);
        let sum: f64 = shares
            .iter()
            .filter(|(k, _)| **k != "attr.explained")
            .map(|(_, v)| v)
            .sum();
        assert!((shares["attr.explained"] - sum).abs() < 1e-12);
        assert_eq!(shares.len(), 9);
    }

    #[test]
    fn a_caller_cheaper_than_its_callees_adds_nothing() {
        let mut u = units();
        u.insert("core.verify_vote_cold_us", 400.0);
        let c = Counts {
            cold_votes: 10.0,
            ..Counts::default()
        };
        assert_eq!(estimate(&u, &c, 1).core, 0.0);
    }
}
