//! Catch-up (§8.3) and crash/restart: how a [`Node`] takes on history it
//! did not agree on itself, and what of its own history survives a crash.
//!
//! A lagging node asks peers for `(block, certificate)` pairs, a restarted
//! one reads its final rounds back from its own log; both feed each pair
//! through [`Blockchain::append_certified`], which trusts nothing but the
//! chain it has built so far. Serving requests and the tentative-fork reorg
//! live here too; deciding *when* to ask is blocksync's, in
//! [`crate::Process`].

use crate::node::Node;
use crate::params::AlgorandParams;
use crate::verify::PipelineVerifier;
use crate::wire::{CatchupBatch, WireMessage};
use algorand_ba::{Certificate, Micros};
use algorand_crypto::codec::Reader;
use algorand_crypto::Keypair;
use algorand_ledger::{Block, Blockchain, ChainError};
use algorand_obs::SpanKind;
use std::sync::Arc;

impl Node {
    /// Serves a catch-up request from canonical history (§8.3).
    ///
    /// Responses are bounded to a few rounds per message; a node far behind
    /// iterates. Every request that arrives is answered: catch-up never
    /// passes through relay dedup, so a retry, or a second lagging node at
    /// the same tip, gets its own response.
    ///
    /// A requester whose tip hash differs from our canonical block at the
    /// same round sits on the losing side of a §8.2 tentative fork; merely
    /// serving `have + 1..` would strand it forever, because every served
    /// certificate binds the majority's previous-block hash. Serving from
    /// the disputed round itself gives the requester the competing
    /// certificate it needs to reorg onto the majority chain.
    pub(crate) fn on_catchup_request(
        &mut self,
        have: u64,
        tip_hash: &[u8; 32],
        out: &mut Vec<WireMessage>,
    ) {
        const MAX_ROUNDS_PER_RESPONSE: u64 = 4;
        let tip = self.chain.tip().round;
        if have >= tip {
            return;
        }
        let on_canon = self
            .chain
            .block_at(have)
            .is_some_and(|b| b.hash() == *tip_hash);
        let start = if on_canon { have + 1 } else { have.max(1) };
        let upto = (start + MAX_ROUNDS_PER_RESPONSE - 1).min(tip);
        let mut entries = Vec::new();
        for r in start..=upto {
            let (Some(block), Some(cert)) = (self.chain.block_at(r), self.chain.certificate_at(r))
            else {
                break; // History incomplete (should not happen on canon).
            };
            entries.push((block.clone(), cert.clone()));
        }
        if !entries.is_empty() {
            out.push(WireMessage::CatchupResponse(CatchupBatch { entries }));
        }
    }

    /// Applies a catch-up batch: validate each certificate against our own
    /// chain context, append, and restart the round loop at the new tip.
    ///
    /// A batch starting at or below our tip is a fork repair (see
    /// [`Node::maybe_reorg_onto`]); when it justifies a reorg, the
    /// tentative suffix is rolled back first and the batch then applies
    /// through the ordinary sequential path.
    pub(crate) fn on_catchup_response(
        &mut self,
        batch: &CatchupBatch,
        now: Micros,
        out: &mut Vec<WireMessage>,
    ) {
        self.maybe_reorg_onto(batch, now);
        let mut applied = 0u64;
        for (block, cert) in &batch.entries {
            match self.chain.append_certified(
                block.clone(),
                cert.clone(),
                &self.params.ba,
                self.verifier.as_ref(),
                now,
            ) {
                Ok(()) => applied += 1,
                Err(ChainError::NotNextRound) => {} // Stale, or ahead of a gap.
                Err(_) => break,                    // Forged batch; ignore the rest.
            }
        }
        self.recovery.catchups_applied += applied;
        if applied > 0 {
            self.tracer
                .span(
                    SpanKind::Catchup,
                    self.trace_node,
                    self.chain.tip().round,
                    now,
                )
                .label("apply")
                .value(applied)
                .instant();
            self.hung = false;
            self.last_progress = now;
            // The network demonstrably made progress without us; our local
            // timeout history says nothing about its health now.
            self.stepvar_backoff = 0;
            // Blocks adopted via catch-up commit nonces just like agreed
            // ones: drop what they made stale.
            self.pool.prune(self.chain.accounts());
            self.start_round(now, out);
        }
    }

    /// Rolls back a tentatively-certified suffix when a catch-up batch
    /// proves the network adopted a different, strictly longer chain.
    ///
    /// An asymmetric partition can split a round's vote flow so that both
    /// sides tentatively certify *different* blocks (§8.2's fork). The
    /// minority side then stalls forever on plain catch-up: every served
    /// certificate binds the majority's previous-block hash, which never
    /// matches the minority's tip. Repair requires displacing the
    /// tentative suffix, under strict conditions:
    ///
    /// - the batch reaches strictly beyond our tip (a longer certified
    ///   chain; equal length never flips, so two sides cannot ping-pong);
    /// - no displaced round is finalized ([`Blockchain::rollback_to`]
    ///   refuses: final blocks never fork — §8.2's safety guarantee stays
    ///   intact);
    /// - the batch is contiguous, each certificate naming its block;
    /// - the first block connects to our canonical chain at the round
    ///   before the divergence; and
    /// - the first certificate validates against that shared prefix
    ///   (committee context only references rounds below the fork point).
    ///
    /// Transactions in the displaced blocks salvage back into the pool;
    /// the remaining batch entries then apply via the ordinary sequential
    /// catch-up path.
    fn maybe_reorg_onto(&mut self, batch: &CatchupBatch, now: Micros) {
        let (Some((first_block, first_cert)), Some((last_block, _))) =
            (batch.entries.first(), batch.entries.last())
        else {
            return;
        };
        let fork = first_block.round;
        let tip = self.chain.tip().round;
        if fork == 0 || fork > tip || last_block.round <= tip {
            return;
        }
        let contiguous = batch.entries.iter().enumerate().all(|(i, (b, c))| {
            b.round == fork + i as u64 && c.round == b.round && c.value == b.hash()
        });
        if !contiguous {
            return;
        }
        let ours = self.chain.block_at(fork).expect("fork <= tip").hash();
        if ours == first_block.hash() {
            return; // Same chain; nothing to repair.
        }
        let prev_hash = self.chain.block_at(fork - 1).expect("below tip").hash();
        if first_block.prev_hash != prev_hash {
            return; // Does not connect to our prefix; fork is deeper.
        }
        let seed = self.chain.selection_seed(fork);
        let weights = self.chain.weights_for_round(fork);
        if first_cert
            .validate(
                &self.params.ba,
                &seed,
                &prev_hash,
                &weights,
                self.verifier.as_ref(),
            )
            .is_err()
        {
            return; // Unproven competing chain; keep ours.
        }
        let Ok(salvaged) = self.chain.rollback_to(fork - 1) else {
            return; // A final round never forks; keep ours.
        };
        let rolled_back = tip - fork + 1;
        self.pool.reinsert(salvaged, self.chain.accounts());
        self.recovery.catchup_reorgs += 1;
        self.tracer
            .span(SpanKind::Catchup, self.trace_node, fork, now)
            .label("reorg")
            .value(rolled_back)
            .instant();
    }

    // --- Crash/restart ---------------------------------------------------------

    /// Rebuilds a node from genesis state plus its durable state: the
    /// [`encode_entry`] bytes of its final rounds, from round 1 on.
    ///
    /// Nothing in them is trusted: every entry goes through
    /// [`Blockchain::append_certified`], as a live catch-up batch does,
    /// and restoration stops at the first entry that fails — corrupt
    /// bytes yield a shorter chain, never a wrong one. Every round that
    /// applies was final when it was kept, so it is final again. The
    /// returned node has not started a round; drive it with
    /// [`Node::start`] and it rejoins, fetching anything it missed while
    /// down via catch-up.
    pub fn restore(
        keypair: Keypair,
        genesis: Blockchain,
        params: AlgorandParams,
        verifier: Arc<PipelineVerifier>,
        entries: &[u8],
        now: Micros,
    ) -> Node {
        let mut chain = genesis;
        let mut r = Reader::new(entries);
        while r.remaining() > 0 {
            let (Ok(block), Ok(cert)) = (Block::decode(&mut r), Certificate::decode(&mut r)) else {
                break;
            };
            if chain
                .append_certified(block, cert, &params.ba, verifier.as_ref(), now)
                .is_err()
            {
                break;
            }
        }
        chain.finalize(chain.tip().round);
        let mut node = Node::new(keypair, chain, params, verifier);
        node.last_progress = now;
        node
    }
}

/// Appends one durable entry to `out`: `block ‖ certificate`, the pair
/// a §8.3 catch-up batch carries. A WAL entry record holds one, and
/// [`Node::restore`] reads a run of them.
pub fn encode_entry(block: &Block, cert: &Certificate, out: &mut Vec<u8>) {
    block.encode(out);
    cert.encode(out);
}
