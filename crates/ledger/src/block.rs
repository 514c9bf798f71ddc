//! Blocks and block validation (§8.1).
//!
//! A block carries "a list of transactions, along with metadata needed by
//! BA⋆": the round number, the proposer's VRF-based seed, the previous
//! block's hash, and the proposal timestamp. Every user validates a
//! received block before handing its hash to BA⋆; an invalid block is
//! replaced by the round's *empty block*, which every user can construct
//! locally and identically.

use crate::codec::{DecodeError, Reader, WriteExt};
use crate::seed::{fallback_seed, verify_seed_proposal};
use crate::transaction::Transaction;
use crate::Accounts;
use algorand_crypto::vrf::{VrfProof, VRF_PROOF_LEN};
use algorand_crypto::{sha256, PublicKey};

/// Microseconds, matching the BA⋆ clock.
pub type Micros = u64;

/// Why a proposed block failed validation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockError {
    /// The round number does not follow the previous block.
    BadRound,
    /// The previous-block hash does not match.
    BadPrevHash,
    /// The timestamp is not after the previous block's, or is too far from
    /// the validator's clock.
    BadTimestamp,
    /// The seed or its VRF proof is invalid.
    BadSeed,
    /// A transaction failed validation.
    BadTransaction,
    /// A non-empty block is missing its proposer or seed proof.
    MissingProposer,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BlockError::BadRound => "wrong round number",
            BlockError::BadPrevHash => "previous-block hash mismatch",
            BlockError::BadTimestamp => "timestamp out of range",
            BlockError::BadSeed => "invalid seed or seed proof",
            BlockError::BadTransaction => "invalid transaction",
            BlockError::MissingProposer => "missing proposer or seed proof",
        };
        f.write_str(s)
    }
}

impl std::error::Error for BlockError {}

/// One block of the Algorand ledger. Equal blocks encode, and therefore
/// hash, identically.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// The round this block was agreed in.
    pub round: u64,
    /// Hash of the previous block.
    pub prev_hash: [u8; 32],
    /// The seed published for future sortition (§5.2).
    pub seed: [u8; 32],
    /// VRF proof for the seed; `None` in empty (fallback) blocks.
    pub seed_proof: Option<VrfProof>,
    /// The proposer's public key; `None` in empty blocks.
    pub proposer: Option<PublicKey>,
    /// When the proposer created the block (0 in empty blocks).
    pub timestamp: Micros,
    /// The payments carried by this block.
    pub txs: Vec<Transaction>,
    /// Synthetic payload standing in for additional transaction bytes.
    ///
    /// The paper's throughput experiments fill 1–10 MB blocks; carrying
    /// that as typed transactions would add nothing but per-test signing
    /// cost, so experiments pad blocks here. Real deployments leave it
    /// empty. It is covered by the block hash like everything else.
    pub payload: Vec<u8>,
}

/// Upper bound on transactions per block accepted by the decoder.
const MAX_TXS: usize = 1 << 20;
/// Upper bound on payload bytes accepted by the decoder (16 MiB).
const MAX_PAYLOAD: usize = 16 << 20;

impl Block {
    /// Constructs the round's canonical empty block (`Empty(round,
    /// H(last_block))` of Algorithm 7).
    ///
    /// Deterministic in `(round, prev_hash, prev_seed)`: every user builds
    /// bit-identical empty blocks without communicating.
    pub fn empty(round: u64, prev_hash: [u8; 32], prev_seed: &[u8; 32]) -> Block {
        Block {
            round,
            prev_hash,
            seed: fallback_seed(prev_seed, round),
            seed_proof: None,
            proposer: None,
            timestamp: 0,
            txs: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// True if this is an empty (fallback) block.
    pub fn is_empty_block(&self) -> bool {
        self.proposer.is_none()
    }

    /// The block hash: SHA-256 of the canonical encoding.
    pub fn hash(&self) -> [u8; 32] {
        sha256(&self.encoded())
    }

    /// Appends the canonical encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_u64(self.round);
        out.put_bytes(&self.prev_hash);
        out.put_bytes(&self.seed);
        match &self.seed_proof {
            Some(p) => {
                out.put_u8(1);
                out.put_bytes(&p.to_bytes());
            }
            None => out.put_u8(0),
        }
        match &self.proposer {
            Some(pk) => {
                out.put_u8(1);
                out.put_bytes(pk.as_bytes());
            }
            None => out.put_u8(0),
        }
        out.put_u64(self.timestamp);
        out.put_u32(self.txs.len() as u32);
        for tx in &self.txs {
            tx.encode(out);
        }
        out.put_var_bytes(&self.payload);
    }

    /// The canonical encoding as a fresh buffer.
    pub fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        self.encode(&mut out);
        out
    }

    /// Serialized size in bytes.
    pub fn wire_size(&self) -> usize {
        8 + 32
            + 32
            + 1
            + self.seed_proof.as_ref().map_or(0, |_| VRF_PROOF_LEN)
            + 1
            + self.proposer.as_ref().map_or(0, |_| 32)
            + 8
            + 4
            + self.txs.len() * Transaction::WIRE_SIZE
            + 4
            + self.payload.len()
    }

    /// Decodes a block.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input; semantic validity is
    /// checked separately by [`Block::validate`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Block, DecodeError> {
        let round = r.u64()?;
        let prev_hash = r.bytes32()?;
        let seed = r.bytes32()?;
        let seed_proof = match r.u8()? {
            0 => None,
            1 => Some(r.vrf_proof()?),
            _ => return Err(DecodeError::Invalid),
        };
        let proposer = match r.u8()? {
            0 => None,
            1 => Some(r.public_key()?),
            _ => return Err(DecodeError::Invalid),
        };
        let timestamp = r.u64()?;
        let n_txs = r.u32()? as usize;
        if n_txs > MAX_TXS {
            return Err(DecodeError::Invalid);
        }
        let mut txs = Vec::with_capacity(n_txs.min(1024));
        for _ in 0..n_txs {
            txs.push(Transaction::decode(r)?);
        }
        let payload = r.var_bytes(MAX_PAYLOAD)?.to_vec();
        Ok(Block {
            round,
            prev_hash,
            seed,
            seed_proof,
            proposer,
            timestamp,
            txs,
            payload,
        })
    }

    /// Validates a received block against its predecessor (§8.1).
    ///
    /// `accounts` is the state after the previous block; `now` is the
    /// validator's clock and `max_skew` the accepted timestamp divergence
    /// ("approximately current, say within an hour"). On any failure the
    /// caller must hand the *empty* block to BA⋆ instead.
    ///
    /// # Errors
    ///
    /// Returns the first [`BlockError`] found.
    pub fn validate(
        &self,
        prev: &Block,
        accounts: &Accounts,
        now: Micros,
        max_skew: Micros,
    ) -> Result<(), BlockError> {
        self.validated_state(prev, &prev.hash(), accounts, now, max_skew, false)
            .map(|_| ())
    }

    /// [`Block::validate`] for a caller that already holds `prev`'s hash
    /// (the chain stores it), returning the account state after the block:
    /// validating applies every payment to a copy of `accounts`, and
    /// [`crate::Blockchain`] keeps that copy rather than applying every
    /// payment a second time. With `seed_verified`, the caller vouches
    /// that this very block's seed proof already verified against `prev`,
    /// and the VRF is not checked again.
    pub(crate) fn validated_state(
        &self,
        prev: &Block,
        prev_hash: &[u8; 32],
        accounts: &Accounts,
        now: Micros,
        max_skew: Micros,
        seed_verified: bool,
    ) -> Result<Accounts, BlockError> {
        if self.round != prev.round + 1 {
            return Err(BlockError::BadRound);
        }
        if self.prev_hash != *prev_hash {
            return Err(BlockError::BadPrevHash);
        }
        if self.is_empty_block() {
            // An empty block must be *the* canonical empty block.
            let canonical = Block::empty(self.round, self.prev_hash, &prev.seed);
            if self.hash() != canonical.hash() {
                return Err(BlockError::BadSeed);
            }
            return Ok(accounts.clone());
        }
        let (Some(proposer), Some(seed_proof)) = (&self.proposer, &self.seed_proof) else {
            return Err(BlockError::MissingProposer);
        };
        if self.timestamp <= prev.timestamp && prev.timestamp != 0 {
            return Err(BlockError::BadTimestamp);
        }
        if self.timestamp > now + max_skew || self.timestamp + max_skew < now {
            return Err(BlockError::BadTimestamp);
        }
        if !seed_verified {
            match verify_seed_proposal(proposer, seed_proof, &prev.seed, self.round) {
                Some(seed) if seed == self.seed => {}
                _ => return Err(BlockError::BadSeed),
            }
        }
        let mut state = accounts.clone();
        for tx in &self.txs {
            state.apply(tx).map_err(|_| BlockError::BadTransaction)?;
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::propose_seed;
    use algorand_crypto::Keypair;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed([seed; 32])
    }

    fn genesis() -> Block {
        Block::empty(0, [0u8; 32], &[0u8; 32])
    }

    fn proposed_block(proposer: &Keypair, prev: &Block, txs: Vec<Transaction>) -> Block {
        let round = prev.round + 1;
        let (seed, proof) = propose_seed(proposer, &prev.seed, round);
        Block {
            round,
            prev_hash: prev.hash(),
            seed,
            seed_proof: Some(proof),
            proposer: Some(proposer.pk),
            timestamp: 1_000_000,
            txs,
            payload: Vec::new(),
        }
    }

    #[test]
    fn empty_block_is_deterministic() {
        let g = genesis();
        let a = Block::empty(1, g.hash(), &g.seed);
        let b = Block::empty(1, g.hash(), &g.seed);
        assert_eq!(a.hash(), b.hash());
        assert!(a.is_empty_block());
        // Different rounds or parents give different empty blocks.
        assert_ne!(a.hash(), Block::empty(2, g.hash(), &g.seed).hash());
        assert_ne!(a.hash(), Block::empty(1, [1u8; 32], &g.seed).hash());
    }

    #[test]
    fn valid_proposed_block_passes() {
        let alice = kp(1);
        let bob = kp(2);
        let accounts = Accounts::genesis([(alice.pk, 100), (bob.pk, 50)]);
        let g = genesis();
        let tx = Transaction::payment(&alice, bob.pk, 10, 1);
        let block = proposed_block(&alice, &g, vec![tx]);
        block
            .validate(&g, &accounts, 1_000_000, 3_600_000_000)
            .unwrap();
    }

    #[test]
    fn wrong_round_rejected() {
        let alice = kp(1);
        let accounts = Accounts::genesis([(alice.pk, 100)]);
        let g = genesis();
        let mut block = proposed_block(&alice, &g, vec![]);
        block.round = 5;
        assert_eq!(
            block.validate(&g, &accounts, 1_000_000, 3_600_000_000),
            Err(BlockError::BadRound)
        );
    }

    #[test]
    fn wrong_prev_hash_rejected() {
        let alice = kp(1);
        let accounts = Accounts::genesis([(alice.pk, 100)]);
        let g = genesis();
        let mut block = proposed_block(&alice, &g, vec![]);
        block.prev_hash = [9u8; 32];
        assert_eq!(
            block.validate(&g, &accounts, 1_000_000, 3_600_000_000),
            Err(BlockError::BadPrevHash)
        );
    }

    #[test]
    fn stolen_seed_rejected() {
        // A proposer cannot reuse another user's seed proof.
        let alice = kp(1);
        let mallory = kp(3);
        let accounts = Accounts::genesis([(alice.pk, 100), (mallory.pk, 100)]);
        let g = genesis();
        let honest = proposed_block(&alice, &g, vec![]);
        let mut stolen = honest.clone();
        stolen.proposer = Some(mallory.pk);
        assert_eq!(
            stolen.validate(&g, &accounts, 1_000_000, 3_600_000_000),
            Err(BlockError::BadSeed)
        );
    }

    #[test]
    fn fabricated_seed_rejected() {
        let alice = kp(1);
        let accounts = Accounts::genesis([(alice.pk, 100)]);
        let g = genesis();
        let mut block = proposed_block(&alice, &g, vec![]);
        block.seed = [0x42u8; 32];
        assert_eq!(
            block.validate(&g, &accounts, 1_000_000, 3_600_000_000),
            Err(BlockError::BadSeed)
        );
    }

    #[test]
    fn far_future_timestamp_rejected() {
        let alice = kp(1);
        let accounts = Accounts::genesis([(alice.pk, 100)]);
        let g = genesis();
        let mut block = proposed_block(&alice, &g, vec![]);
        block.timestamp = 10_000_000_000_000;
        // Timestamp is signed into nothing (blocks are identified by hash),
        // so only validation catches it.
        assert_eq!(
            block.validate(&g, &accounts, 1_000_000, 3_600_000_000),
            Err(BlockError::BadTimestamp)
        );
    }

    #[test]
    fn invalid_transaction_rejects_block() {
        let alice = kp(1);
        let bob = kp(2);
        let accounts = Accounts::genesis([(alice.pk, 5)]);
        let g = genesis();
        // Overdraft.
        let tx = Transaction::payment(&alice, bob.pk, 100, 1);
        let block = proposed_block(&alice, &g, vec![tx]);
        assert_eq!(
            block.validate(&g, &accounts, 1_000_000, 3_600_000_000),
            Err(BlockError::BadTransaction)
        );
    }

    #[test]
    fn sequential_txs_in_one_block_validate() {
        let alice = kp(1);
        let bob = kp(2);
        let accounts = Accounts::genesis([(alice.pk, 100)]);
        let g = genesis();
        let t1 = Transaction::payment(&alice, bob.pk, 60, 1);
        let t2 = Transaction::payment(&alice, bob.pk, 40, 2);
        let block = proposed_block(&alice, &g, vec![t1, t2]);
        block
            .validate(&g, &accounts, 1_000_000, 3_600_000_000)
            .unwrap();
    }

    #[test]
    fn encoding_roundtrip() {
        let alice = kp(1);
        let bob = kp(2);
        let g = genesis();
        let tx = Transaction::payment(&alice, bob.pk, 10, 1);
        let mut block = proposed_block(&alice, &g, vec![tx]);
        block.payload = vec![0xaa; 100];
        let bytes = block.encoded();
        assert_eq!(bytes.len(), block.wire_size());
        let mut r = Reader::new(&bytes);
        let back = Block::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.hash(), block.hash());
        assert_eq!(back.txs.len(), 1);
        assert_eq!(back.payload.len(), 100);
    }

    #[test]
    fn empty_block_encoding_roundtrip() {
        let g = genesis();
        let bytes = g.encoded();
        let mut r = Reader::new(&bytes);
        let back = Block::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.hash(), g.hash());
        assert!(back.is_empty_block());
    }

    #[test]
    fn counterfeit_empty_block_rejected() {
        // An "empty" block with a non-canonical seed must not validate.
        let alice = kp(1);
        let accounts = Accounts::genesis([(alice.pk, 100)]);
        let g = genesis();
        let mut fake = Block::empty(1, g.hash(), &g.seed);
        fake.seed = [0x99u8; 32];
        assert_eq!(
            fake.validate(&g, &accounts, 1_000_000, 3_600_000_000),
            Err(BlockError::BadSeed)
        );
    }
}
