//! The blockchain store: canonical chain, forks, finality, and bootstrap.
//!
//! This is a node's one store of block bodies. It keeps every block the
//! node learns about — its own and others' proposals, each round's empty
//! block, fork proposals (§8.2 has users passively track *all* forks via
//! BA⋆ votes) — and an adopted canonical chain with its account states,
//! finality marks, and certificates (§8.3). Side blocks at or below a
//! final round are pruned.
//!
//! A canonical suffix is replaced in one way: [`Blockchain::rollback_to`],
//! which refuses to displace a final round, since final blocks never fork.
//! Catch-up rolls back before re-appending certified history; recovery's
//! [`Blockchain::switch_to_fork`] rolls back to the fork's newest
//! canonical ancestor once the fork has validated on that ancestor's
//! state. Bootstrap rebuilds a chain from scratch by validating blocks
//! and certificates in order from genesis.

use crate::account::Accounts;
use crate::block::{Block, BlockError, Micros};
use crate::seed::selection_seed_round;
use crate::transaction::Transaction;
use algorand_ba::{BaParams, Certificate, RoundWeights, VoteVerifier};
use algorand_crypto::PublicKey;
use std::collections::HashMap;

/// Chain-level configuration.
#[derive(Clone, Copy, Debug)]
pub struct ChainParams {
    /// Seed refresh interval R (§5.2; paper: 1000 rounds).
    pub seed_refresh_interval: u64,
    /// Weight look-back in rounds, standing in for the b-time look-back of
    /// §5.3 (weights are taken from the state this many rounds before the
    /// selection-seed round).
    pub weight_lookback: u64,
    /// Maximum accepted divergence between a block timestamp and the
    /// validator's clock (§8.1: "say, within an hour").
    pub max_timestamp_skew: Micros,
}

impl ChainParams {
    /// Paper-equivalent defaults: R = 1000, 1-hour skew; the weight
    /// look-back defaults to R as well (the paper ties it to b-time).
    pub fn paper() -> ChainParams {
        ChainParams {
            seed_refresh_interval: 1000,
            weight_lookback: 1000,
            max_timestamp_skew: 3_600_000_000,
        }
    }
}

/// Why a block could not be appended or a chain could not be adopted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChainError {
    /// Block-level validation failed.
    Block(BlockError),
    /// The block's parent is not the current tip (append) or is unknown
    /// (observe/switch).
    UnknownParent,
    /// A certificate did not validate, or names another block.
    BadCertificate,
    /// A `(block, certificate)` entry is for some round other than the
    /// next one: stale, or ahead of a gap.
    NotNextRound,
    /// The named block (a fork tip, or a block to validate) is not
    /// stored, or its ancestry does not reach this chain's genesis.
    UnknownFork,
    /// The change would displace a final round (§8.2: final blocks
    /// never fork).
    Finalized,
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::Block(e) => write!(f, "invalid block: {e}"),
            ChainError::UnknownParent => f.write_str("unknown or non-tip parent"),
            ChainError::BadCertificate => f.write_str("invalid certificate"),
            ChainError::NotNextRound => f.write_str("entry is not for the next round"),
            ChainError::UnknownFork => f.write_str("unknown block or fork ancestry"),
            ChainError::Finalized => f.write_str("would displace a final round"),
        }
    }
}

impl std::error::Error for ChainError {}

impl From<BlockError> for ChainError {
    fn from(e: BlockError) -> ChainError {
        ChainError::Block(e)
    }
}

struct Stored {
    block: Block,
    certificate: Option<Certificate>,
    finalized: bool,
}

/// One node's view of the ledger.
pub struct Blockchain {
    params: ChainParams,
    /// Every block this node knows of, canonical or not, by hash.
    all_blocks: HashMap<[u8; 32], Stored>,
    /// The adopted chain: `canonical[r]` is the hash of the round-r block.
    canonical: Vec<[u8; 32]>,
    /// `states[r]` is the account state after applying `canonical[r]`.
    states: Vec<Accounts>,
    /// The hash of the block [`Blockchain::validate_next`] last accepted:
    /// appending that block does not verify its seed proof again.
    validated: Option<[u8; 32]>,
}

impl std::fmt::Debug for Blockchain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blockchain")
            .field("rounds", &(self.canonical.len() - 1))
            .field("known_blocks", &self.all_blocks.len())
            .field("tip", &self.tip_hash()[..4].to_vec())
            .finish()
    }
}

impl Blockchain {
    /// Creates a chain holding only the genesis block.
    ///
    /// The genesis block fixes the initial allocations and the bootstrap
    /// seed `seed_0` (§8.3: chosen by distributed random generation once
    /// the initial keys are public — here it is simply an input).
    pub fn new(
        params: ChainParams,
        alloc: impl IntoIterator<Item = (PublicKey, u64)>,
        genesis_seed: [u8; 32],
    ) -> Blockchain {
        let accounts = Accounts::genesis(alloc);
        let genesis = Block {
            round: 0,
            prev_hash: [0u8; 32],
            seed: genesis_seed,
            seed_proof: None,
            proposer: None,
            timestamp: 0,
            txs: Vec::new(),
            payload: Vec::new(),
        };
        let ghash = genesis.hash();
        let mut all_blocks = HashMap::new();
        all_blocks.insert(
            ghash,
            Stored {
                block: genesis,
                certificate: None,
                finalized: true,
            },
        );
        Blockchain {
            params,
            all_blocks,
            canonical: vec![ghash],
            states: vec![accounts],
            validated: None,
        }
    }

    /// The chain parameters.
    pub fn params(&self) -> &ChainParams {
        &self.params
    }

    /// The tip's round, without looking the block up: the canonical
    /// chain holds one hash per round from genesis on.
    pub fn tip_round(&self) -> u64 {
        self.canonical.len() as u64 - 1
    }

    /// The current tip block.
    pub fn tip(&self) -> &Block {
        let h = self.canonical.last().expect("genesis always present");
        &self.all_blocks[h].block
    }

    /// The hash of the tip block.
    pub fn tip_hash(&self) -> [u8; 32] {
        *self.canonical.last().expect("genesis always present")
    }

    /// The round the chain is currently trying to agree on (tip + 1).
    pub fn next_round(&self) -> u64 {
        self.tip().round + 1
    }

    /// Account state at the tip.
    pub fn accounts(&self) -> &Accounts {
        self.states.last().expect("genesis always present")
    }

    /// The canonical block for a round, if adopted.
    pub fn block_at(&self, round: u64) -> Option<&Block> {
        self.canonical
            .get(round as usize)
            .map(|h| &self.all_blocks[h].block)
    }

    /// The certificate stored for a canonical round.
    pub fn certificate_at(&self, round: u64) -> Option<&Certificate> {
        self.canonical
            .get(round as usize)
            .and_then(|h| self.all_blocks[h].certificate.as_ref())
    }

    /// A digest of the canonical chain through `round`: the hash of the
    /// concatenated block hashes for rounds `1..=round`. Two deployments
    /// that agreed on the same blocks — a simulator run and a real
    /// multi-process network — produce identical digests. `None` if the
    /// chain has not reached `round` yet.
    pub fn digest_through(&self, round: u64) -> Option<[u8; 32]> {
        if self.tip().round < round {
            return None;
        }
        let mut acc: Vec<u8> = Vec::with_capacity(32 * round as usize);
        for r in 1..=round {
            acc.extend_from_slice(self.canonical.get(r as usize)?);
        }
        Some(algorand_crypto::sha256_concat(&[
            b"chain-digest-through",
            &acc,
        ]))
    }

    /// Whether the canonical block at `round` is finalized.
    pub fn is_finalized(&self, round: u64) -> bool {
        self.canonical
            .get(round as usize)
            .map(|h| self.all_blocks[h].finalized)
            .unwrap_or(false)
    }

    /// The sortition seed to use for `round` (§5.2's refresh rule).
    pub fn selection_seed(&self, round: u64) -> [u8; 32] {
        let seed_round = selection_seed_round(round, self.params.seed_refresh_interval);
        self.block_at(seed_round.min(self.tip().round))
            .expect("seed round is on the canonical chain")
            .seed
    }

    /// The weight snapshot to use for `round` (§5.3's look-back rule).
    pub fn weights_for_round(&self, round: u64) -> RoundWeights {
        let seed_round = selection_seed_round(round, self.params.seed_refresh_interval);
        let weight_round = seed_round
            .saturating_sub(self.params.weight_lookback)
            .min(self.tip().round);
        self.states[weight_round as usize].weights()
    }

    /// [`Block::validate`] for the stored block `hash` as a successor of
    /// the tip, against the tip's stored hash instead of a fresh one: what
    /// a node asks of a proposal before handing its hash to BA⋆ (§8.1).
    /// The chain remembers the last block it accepts, so appending that
    /// block after BA⋆ skips the seed's VRF verification; every other
    /// check, the timestamp against the append's clock included, runs
    /// again.
    ///
    /// # Errors
    ///
    /// [`ChainError::UnknownFork`] if no block is stored under `hash`
    /// (observe it first), or the first [`BlockError`] found.
    pub fn validate_next(&mut self, hash: &[u8; 32], now: Micros) -> Result<(), ChainError> {
        let block = &self
            .all_blocks
            .get(hash)
            .ok_or(ChainError::UnknownFork)?
            .block;
        self.validated_next(block, now, false)?;
        self.validated = Some(*hash);
        Ok(())
    }

    fn validated_next(
        &self,
        block: &Block,
        now: Micros,
        seed_verified: bool,
    ) -> Result<Accounts, BlockError> {
        block.validated_state(
            self.tip(),
            &self.tip_hash(),
            self.accounts(),
            now,
            self.params.max_timestamp_skew,
            seed_verified,
        )
    }

    /// Appends a block to the canonical chain after validating it.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownParent`] if the block does not extend
    /// the tip, or the underlying [`BlockError`].
    pub fn append(
        &mut self,
        block: Block,
        certificate: Option<Certificate>,
        finalized: bool,
        now: Micros,
    ) -> Result<(), ChainError> {
        let hash = block.hash();
        self.append_hashed(block, hash, certificate, finalized, now)
    }

    /// [`Blockchain::append`] for a caller that already took the hash.
    fn append_hashed(
        &mut self,
        block: Block,
        hash: [u8; 32],
        certificate: Option<Certificate>,
        finalized: bool,
        now: Micros,
    ) -> Result<(), ChainError> {
        if block.prev_hash != self.tip_hash() {
            return Err(ChainError::UnknownParent);
        }
        // A block validated before is validated against this very tip:
        // its hash commits to the parent.
        let seed_verified = self.validated.take() == Some(hash);
        let state = self.validated_next(&block, now, seed_verified)?;
        self.all_blocks.insert(
            hash,
            Stored {
                block,
                certificate,
                finalized,
            },
        );
        self.canonical.push(hash);
        self.states.push(state);
        Ok(())
    }

    /// Appends one `(block, certificate)` entry of somebody else's history
    /// as a tentative block — §8.3's step, the same for a bootstrapping
    /// user, a catch-up batch and a restart from the node's own log. The
    /// entry must be for the next round, the certificate must name the
    /// block and validate under the seed, weights and tip this chain
    /// itself holds for that round, and the block must validate.
    ///
    /// # Errors
    ///
    /// [`ChainError::NotNextRound`] for a stale or out-of-order entry
    /// (nothing was checked), [`ChainError::BadCertificate`] for a forged,
    /// mismatched or insufficient certificate, or the error of
    /// [`Blockchain::append`]. The chain is unchanged on any error.
    pub fn append_certified(
        &mut self,
        block: Block,
        cert: Certificate,
        ba_params: &BaParams,
        verifier: &dyn VoteVerifier,
        now: Micros,
    ) -> Result<(), ChainError> {
        let next = self.next_round();
        if block.round != next || cert.round != next {
            return Err(ChainError::NotNextRound);
        }
        let hash = block.hash();
        if cert.value != hash {
            return Err(ChainError::BadCertificate);
        }
        let seed = self.selection_seed(next);
        let weights = self.weights_for_round(next);
        cert.validate(ba_params, &seed, &self.tip_hash(), &weights, verifier)
            .map_err(|_| ChainError::BadCertificate)?;
        self.append_hashed(block, hash, Some(cert), false, now)
    }

    /// Marks the canonical block at `round` (and, transitively, all its
    /// predecessors) as finalized. Algorand confirms a transaction when it
    /// is in a final block *or a predecessor of one* (§8.2).
    ///
    /// Walks down from `round` and stops below the first block that is
    /// already final: its predecessors were marked when it was.
    pub fn finalize(&mut self, round: u64) {
        let top = round.min(self.tip().round);
        for r in (0..=top).rev() {
            let h = self.canonical[r as usize];
            let stored = self.all_blocks.get_mut(&h).expect("canonical");
            if std::mem::replace(&mut stored.finalized, true) && r < top {
                break;
            }
        }
    }

    /// Discards the tentative canonical suffix above `round`, returning the
    /// transactions of the dropped blocks so the caller can salvage them
    /// back into its pool.
    ///
    /// A tentative prefix may sit on the losing side of a §8.2 fork: a
    /// partition can leave a minority holding tentatively-certified blocks
    /// the rest of the network never adopted. Catch-up resolves this by
    /// rolling the tentative suffix back and re-appending the majority's
    /// certified chain; recovery by [`Blockchain::switch_to_fork`], which
    /// rolls back through here. The dropped blocks stay in the fork store
    /// for §8.2 bookkeeping.
    ///
    /// # Errors
    ///
    /// [`ChainError::Finalized`] if any round above `round` is final:
    /// final blocks never fork, so this is the one place a displaced round
    /// is checked. The chain is unchanged then.
    pub fn rollback_to(&mut self, round: u64) -> Result<Vec<Transaction>, ChainError> {
        let keep = round as usize + 1;
        let suffix = self.canonical.get(keep..).unwrap_or_default();
        if suffix.iter().any(|h| self.all_blocks[h].finalized) {
            return Err(ChainError::Finalized);
        }
        let dropped = suffix
            .iter()
            .flat_map(|h| self.all_blocks[h].block.txs.iter().cloned())
            .collect();
        self.canonical.truncate(keep);
        self.states.truncate(keep);
        Ok(dropped)
    }

    /// The transactions of round `round`'s stored blocks other than
    /// `decided`: the proposals that lost the round, for a node to salvage
    /// back into its pool (the replay check against updated accounts drops
    /// whatever the winner committed). Ask before
    /// [`Blockchain::prune_side_blocks`] passes `round`.
    pub fn losing_txs(&self, round: u64, decided: [u8; 32]) -> Vec<Transaction> {
        self.all_blocks
            .iter()
            .filter(|(h, s)| s.block.round == round && **h != decided)
            .flat_map(|(_, s)| s.block.txs.iter().cloned())
            .collect()
    }

    /// Drops non-canonical blocks at or below `round` from the fork store.
    ///
    /// Finalized rounds can never fork (§8.2), so side blocks there are
    /// dead weight; nodes prune them as finality advances to keep memory
    /// proportional to the unfinalized suffix.
    pub fn prune_side_blocks(&mut self, round: u64) {
        let canonical = &self.canonical;
        self.all_blocks.retain(|h, s| {
            s.block.round > round || canonical.get(s.block.round as usize) == Some(h)
        });
    }

    /// Stores a block that is *not* (yet) on the canonical chain — a
    /// proposal, a round's empty block, a fork proposal (§8.2) — and
    /// returns the hash it was stored under, so the caller need not hash
    /// the body again.
    pub fn observe_block(&mut self, block: Block) -> [u8; 32] {
        let hash = block.hash();
        self.all_blocks.entry(hash).or_insert(Stored {
            block,
            certificate: None,
            finalized: false,
        });
        hash
    }

    /// The round a transaction was confirmed in, if on the canonical
    /// chain: a scan of the canonical blocks.
    pub fn confirmed_round(&self, tx_id: &[u8; 32]) -> Option<u64> {
        let confirms = |h: &[u8; 32]| {
            self.all_blocks[h]
                .block
                .txs
                .iter()
                .any(|t| t.id() == *tx_id)
        };
        self.canonical.iter().position(confirms).map(|r| r as u64)
    }

    /// A confirmed transaction is *safely* confirmed once its block or any
    /// successor is final.
    pub fn is_safely_confirmed(&self, tx_id: &[u8; 32]) -> bool {
        match self.confirmed_round(tx_id) {
            Some(round) => (round..=self.tip().round).any(|r| self.is_finalized(r)),
            None => false,
        }
    }

    /// The tip of the longest *agreed* chain among all stored blocks
    /// whose ancestry reaches genesis — the fork proposed during recovery
    /// (§8.2).
    ///
    /// Only agreed blocks count (certified, or on the local canonical
    /// chain): a merely observed block cannot have been tentatively
    /// agreed by anyone (a BA⋆ decision implies a certificate), so
    /// nothing is lost by never extending it — and observed
    /// proposal-race bodies are *local* state that peers on the other
    /// side of a partition may not hold, so a recovery proposal
    /// extending one could never gather network-wide votes.
    pub fn longest_fork(&self) -> ([u8; 32], u64) {
        let mut best = (self.canonical[0], 0u64);
        for hash in self.all_blocks.keys() {
            if let Some(len) = self.certified_depth_of(hash) {
                if len > best.1 || (len == best.1 && *hash > best.0) {
                    best = (*hash, len);
                }
            }
        }
        best
    }

    /// A stored block (canonical or not) by hash.
    pub fn block_by_hash(&self, hash: &[u8; 32]) -> Option<&Block> {
        self.all_blocks.get(hash).map(|s| &s.block)
    }

    /// The length (number of non-genesis ancestors) of the *agreed*
    /// chain ending at `hash`, or `None` if any ancestor is missing or
    /// was merely observed. This is the yardstick recovery proposals are
    /// judged by, so it must match what [`Blockchain::longest_fork`]
    /// measures.
    pub fn fork_length(&self, hash: &[u8; 32]) -> Option<u64> {
        self.certified_depth_of(hash)
    }

    /// The weight snapshot at a specific canonical round (clamped to the
    /// tip). Used by recovery, which fixes its own look-back round.
    pub fn weights_at_round(&self, round: u64) -> RoundWeights {
        let r = round.min(self.tip().round) as usize;
        self.states[r].weights()
    }

    /// The newest canonical *proposed* block whose timestamp is at most
    /// `cutoff`, falling back to genesis: the shared reference point from
    /// which recovery derives its seed and weights (§8.2 quantizes time by
    /// block timestamps so nodes on different forks agree on it as long as
    /// the fork is younger than the look-back window).
    pub fn recovery_base(&self, cutoff: Micros) -> (u64, [u8; 32]) {
        let mut base = (0u64, self.all_blocks[&self.canonical[0]].block.seed);
        for (r, h) in self.canonical.iter().enumerate() {
            let b = &self.all_blocks[h].block;
            if b.timestamp > 0 && b.timestamp <= cutoff {
                base = (r as u64, b.seed);
            }
        }
        base
    }

    /// The number of ancestors of `hash` down to genesis, or `None` if the
    /// ancestry is incomplete (missing blocks) or contains a non-genesis
    /// block that was merely observed, never agreed: a block counts only
    /// when it carries a certificate or sits on this node's canonical
    /// chain (which the node only extends through agreed rounds).
    fn certified_depth_of(&self, hash: &[u8; 32]) -> Option<u64> {
        let mut depth = 0u64;
        let mut cur = *hash;
        loop {
            let stored = self.all_blocks.get(&cur)?;
            if stored.block.round == 0 {
                return Some(depth);
            }
            let canonical = self.canonical.get(stored.block.round as usize) == Some(&cur);
            if stored.certificate.is_none() && !canonical {
                return None;
            }
            cur = stored.block.prev_hash;
            depth += 1;
            if depth > self.all_blocks.len() as u64 {
                return None; // Cycle guard; cannot happen with real hashes.
            }
        }
    }

    /// Re-roots the canonical chain at the fork ending in `tip`, returning
    /// the transactions of the abandoned canonical blocks.
    ///
    /// Used by recovery once BA⋆ agrees which fork to adopt. Walks back
    /// from `tip` to its newest canonical ancestor, validates the fork's
    /// blocks on that ancestor's state, and only then rolls the canonical
    /// suffix back through [`Blockchain::rollback_to`] and adopts them.
    ///
    /// # Errors
    ///
    /// [`ChainError::UnknownFork`] if an ancestor is missing or the fork
    /// does not reach this chain's genesis, a validation error if the fork
    /// contains an invalid block (an honest node never proposes such a
    /// fork), or [`ChainError::Finalized`] if the switch would displace a
    /// final round. The chain is unchanged on any error.
    pub fn switch_to_fork(
        &mut self,
        tip: [u8; 32],
        now: Micros,
    ) -> Result<Vec<Transaction>, ChainError> {
        // The fork's blocks above the canonical chain, tip first. A
        // foreign genesis ends the walk at its all-zero parent.
        let mut path = Vec::new();
        let mut base = tip;
        let base_round = loop {
            let block = self.block_by_hash(&base).ok_or(ChainError::UnknownFork)?;
            if self.canonical.get(block.round as usize) == Some(&base) {
                break block.round;
            }
            path.push(base);
            base = block.prev_hash;
        };
        let mut states = Vec::with_capacity(path.len());
        let mut prev = base;
        for &hash in path.iter().rev() {
            let state = states.last().unwrap_or(&self.states[base_round as usize]);
            let next = self.all_blocks[&hash].block.validated_state(
                &self.all_blocks[&prev].block,
                &prev,
                state,
                now,
                self.params.max_timestamp_skew,
                false,
            )?;
            states.push(next);
            prev = hash;
        }
        let abandoned = self.rollback_to(base_round)?;
        self.canonical.extend(path.iter().rev());
        self.states.extend(states);
        Ok(abandoned)
    }

    /// Bootstraps a chain by validating `(block, certificate)` pairs in
    /// order from genesis (§8.3's catch-up).
    ///
    /// Every certificate is checked with the seed and weights that were in
    /// effect for its round, exactly as a live participant would have.
    ///
    /// # Errors
    ///
    /// Returns the first error of [`Blockchain::append_certified`].
    #[allow(clippy::too_many_arguments)]
    pub fn bootstrap(
        params: ChainParams,
        alloc: impl IntoIterator<Item = (PublicKey, u64)>,
        genesis_seed: [u8; 32],
        history: &[(Block, Certificate)],
        ba_params: &BaParams,
        verifier: &dyn VoteVerifier,
        now: Micros,
    ) -> Result<Blockchain, ChainError> {
        history.iter().try_fold(
            Blockchain::new(params, alloc, genesis_seed),
            |mut chain, (block, cert)| {
                chain.append_certified(block.clone(), cert.clone(), ba_params, verifier, now)?;
                Ok(chain)
            },
        )
    }

    /// Total bytes this node stores for blocks and certificates when the
    /// store is sharded `n_shards` ways (§8.3): a user with key `pk` keeps
    /// rounds where `round ≡ pk mod n_shards`.
    pub fn sharded_storage_bytes(&self, pk: &PublicKey, n_shards: u64) -> usize {
        let shard = shard_of(pk, n_shards);
        self.canonical
            .iter()
            .enumerate()
            .filter(|(r, _)| n_shards <= 1 || (*r as u64) % n_shards == shard)
            .map(|(_, h)| {
                let stored = &self.all_blocks[h];
                stored.block.wire_size() + stored.certificate.as_ref().map_or(0, |c| c.wire_size())
            })
            .sum()
    }
}

/// The storage shard a public key is responsible for (§8.3: "users store
/// blocks/certificates whose round number equals their public key modulo
/// N").
pub fn shard_of(pk: &PublicKey, n_shards: u64) -> u64 {
    if n_shards <= 1 {
        return 0;
    }
    let bytes = pk.as_bytes();
    let mut x = [0u8; 8];
    x.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(x) % n_shards
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `finalize` as it was: re-marks every round from genesis.
    fn naive_finalize(chain: &mut Blockchain, round: u64) {
        for r in 0..=round.min(chain.tip().round) {
            let h = chain.canonical[r as usize];
            chain.all_blocks.get_mut(&h).expect("canonical").finalized = true;
        }
    }

    /// `prune_side_blocks` as it was: collects the whole canonical chain.
    fn naive_prune(chain: &mut Blockchain, round: u64) {
        let canonical: std::collections::HashSet<[u8; 32]> =
            chain.canonical.iter().copied().collect();
        chain
            .all_blocks
            .retain(|h, s| s.block.round > round || canonical.contains(h));
    }

    #[test]
    fn finality_walks_only_the_new_suffix_and_agrees_with_the_full_scan() {
        let new_chain = || Blockchain::new(ChainParams::paper(), [], [7u8; 32]);
        let (mut fast, mut naive) = (new_chain(), new_chain());
        for r in 1..=300u64 {
            let empty = Block::empty(r, fast.tip_hash(), &fast.tip().seed);
            // A losing proposal of the round, kept for fork tracking.
            let mut side = empty.clone();
            side.payload = vec![r as u8];
            // Final rounds come in bursts, as a node sees them: appended
            // as final, then finalized and pruned through.
            let finalized = r % 7 < 2;
            for (chain, is_naive) in [(&mut fast, false), (&mut naive, true)] {
                chain.observe_block(side.clone());
                chain.append(empty.clone(), None, finalized, r).unwrap();
                match (finalized, is_naive) {
                    (false, _) => {}
                    (true, false) => {
                        chain.finalize(r);
                        chain.prune_side_blocks(r);
                    }
                    (true, true) => {
                        naive_finalize(chain, r);
                        naive_prune(chain, r);
                    }
                }
            }
            for q in 0..=r {
                assert_eq!(
                    fast.is_finalized(q),
                    naive.is_finalized(q),
                    "round {q} at {r}"
                );
            }
            let held = |c: &Blockchain| {
                let mut hashes: Vec<_> = c.all_blocks.keys().copied().collect();
                hashes.sort_unstable();
                hashes
            };
            assert_eq!(held(&fast), held(&naive), "surviving blocks at {r}");
        }
        assert!(fast.is_finalized(295) && !fast.is_finalized(296));
        assert_eq!(
            fast.all_blocks.len(),
            301 + 5,
            "rounds 296..=300 keep sides"
        );
    }
}
