//! The node's wire protocol: everything Algorand gossips.

use crate::proposal::{BlockMessage, PriorityMessage};
use crate::recovery::ForkProposalMessage;
use algorand_ba::{Certificate, VoteMessage};
use algorand_crypto::codec::{DecodeError, Reader, WriteExt};
use algorand_crypto::sha256_concat;
use algorand_ledger::{Block, Transaction};

/// A catch-up response carrying agreed rounds with their certificates
/// (§8.3: certificates let any user validate prior blocks).
#[derive(Clone, Debug)]
pub struct CatchupBatch {
    /// Consecutive `(block, certificate)` pairs starting at the
    /// requester's next round.
    pub entries: Vec<(Block, Certificate)>,
}

impl CatchupBatch {
    /// Upper bound on entries accepted by the decoder.
    pub const MAX_ENTRIES: usize = 1024;

    /// Upper bound on the *bytes* a decoded batch may span (8 MiB).
    ///
    /// `MAX_ENTRIES` alone is no defence for a real socket listener:
    /// 1024 blocks of 16 MiB payload each would commit the decoder to
    /// gigabytes. The serving side sends a few rounds per response, so
    /// any batch wider than this is hostile.
    pub const MAX_WIRE_BYTES: usize = 8 << 20;

    /// Serialized size in bytes.
    pub fn wire_size(&self) -> usize {
        8 + self
            .entries
            .iter()
            .map(|(b, c)| b.wire_size() + c.wire_size())
            .sum::<usize>()
    }

    /// A content id for gossip dedup. Identical batches served by
    /// different peers deduplicate to one propagation.
    pub fn message_id(&self) -> [u8; 32] {
        let mut parts: Vec<[u8; 32]> = vec![[0xCAu8; 32]];
        for (b, _) in &self.entries {
            parts.push(b.hash());
        }
        let refs: Vec<&[u8]> = parts.iter().map(|p| &p[..]).collect();
        sha256_concat(&refs)
    }
}

/// The kind of a wire message, as named by its tag byte — available even
/// when the payload fails to decode, so transport logs can attribute
/// failures to a message kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireKind {
    /// Tag 1: a priority message.
    Priority,
    /// Tag 2: a block message.
    Block,
    /// Tag 3: a BA⋆ vote.
    Vote,
    /// Tag 4: a fork proposal.
    ForkProposal,
    /// Tag 5: a transaction.
    Transaction,
    /// Tag 6: a catch-up request.
    CatchupRequest,
    /// Tag 7: a catch-up response.
    CatchupResponse,
}

impl WireKind {
    /// Maps a tag byte to its kind, if known.
    pub fn from_tag(tag: u8) -> Option<WireKind> {
        Some(match tag {
            1 => WireKind::Priority,
            2 => WireKind::Block,
            3 => WireKind::Vote,
            4 => WireKind::ForkProposal,
            5 => WireKind::Transaction,
            6 => WireKind::CatchupRequest,
            7 => WireKind::CatchupResponse,
            _ => return None,
        })
    }

    /// The kind's wire-log name.
    pub fn name(self) -> &'static str {
        match self {
            WireKind::Priority => "priority",
            WireKind::Block => "block",
            WireKind::Vote => "vote",
            WireKind::ForkProposal => "fork_proposal",
            WireKind::Transaction => "transaction",
            WireKind::CatchupRequest => "catchup_request",
            WireKind::CatchupResponse => "catchup_response",
        }
    }
}

/// A decode failure attributed to the message kind (from the tag byte,
/// when one was readable) and the byte offset the decoder had reached —
/// what a transport needs to log a malformed frame usefully.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WireDecodeError {
    /// The kind named by the frame's tag byte, if the tag was readable
    /// and known.
    pub kind: Option<WireKind>,
    /// Bytes consumed before the failure.
    pub offset: usize,
    /// The underlying codec error.
    pub err: DecodeError,
}

impl std::fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = self.kind.map_or("unknown", WireKind::name);
        write!(
            f,
            "malformed {kind} message at byte {}: {}",
            self.offset, self.err
        )
    }
}

impl std::error::Error for WireDecodeError {}

/// Any message exchanged over the gossip network.
///
/// Variant sizes range from 16 bytes to whole blocks; messages are wrapped
/// in `Arc` by the transport, so the enum itself is never copied in bulk.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum WireMessage {
    /// A proposer's small priority-and-proof message (§6).
    Priority(PriorityMessage),
    /// A proposer's full block (§6).
    Block(BlockMessage),
    /// A BA⋆ committee vote (§7).
    Vote(VoteMessage),
    /// A recovery fork proposal (§8.2).
    ForkProposal(ForkProposalMessage),
    /// A user-submitted payment looking for a proposer (§4).
    Transaction(Transaction),
    /// "I am at round `have`; please send what I missed" (§8.3 catch-up).
    CatchupRequest {
        /// The requester's current tip round.
        have: u64,
        /// The hash of the requester's tip block. A responder whose
        /// canonical block at `have` differs knows the requester sits on a
        /// tentative fork (§8.2) and serves from the disputed round so the
        /// requester can reorg onto the certified majority chain.
        tip_hash: [u8; 32],
    },
    /// Agreed rounds with certificates, answering a catch-up request.
    CatchupResponse(CatchupBatch),
}

impl WireMessage {
    /// Serialized size in bytes, for bandwidth modelling.
    pub fn wire_size(&self) -> usize {
        match self {
            WireMessage::Priority(_) => PriorityMessage::WIRE_SIZE,
            WireMessage::Block(b) => b.wire_size(),
            WireMessage::Vote(_) => VoteMessage::WIRE_SIZE,
            WireMessage::ForkProposal(f) => f.wire_size(),
            WireMessage::Transaction(_) => Transaction::WIRE_SIZE,
            WireMessage::CatchupRequest { .. } => 48,
            WireMessage::CatchupResponse(b) => b.wire_size(),
        }
    }

    /// Whether this message goes to one peer and no further: §8.3
    /// catch-up. Such a message never passes through relay dedup and is
    /// never forwarded; every other kind is gossip.
    pub fn is_point_to_point(&self) -> bool {
        matches!(
            self,
            WireMessage::CatchupRequest { .. } | WireMessage::CatchupResponse(_)
        )
    }

    /// A content id for gossip dedup.
    pub fn message_id(&self) -> [u8; 32] {
        match self {
            WireMessage::Priority(p) => p.message_id(),
            WireMessage::Block(b) => b.message_id(),
            WireMessage::Vote(v) => v.message_id(),
            WireMessage::ForkProposal(f) => f.message_id(),
            WireMessage::Transaction(t) => sha256_concat(&[b"tx-id", &t.id()]),
            WireMessage::CatchupRequest { have, tip_hash } => {
                sha256_concat(&[b"catchup-req", &have.to_le_bytes(), tip_hash])
            }
            WireMessage::CatchupResponse(b) => b.message_id(),
        }
    }

    /// The per-sender relay slot `(pk, round, step)` for the §8.4
    /// one-message-per-key rule, where applicable.
    ///
    /// The round component is tagged with the message type in its top
    /// byte so that slots of different message kinds can never collide
    /// (a proposer both proposes *and* votes in the same round).
    pub fn relay_slot(&self) -> Option<([u8; 32], u64, u32)> {
        const TAG_VOTE: u64 = 0 << 56;
        const TAG_PRIORITY: u64 = 1 << 56;
        const TAG_FORK: u64 = 2 << 56;
        match self {
            // Priority messages: one per proposer per round.
            WireMessage::Priority(p) => Some((p.sender.to_bytes(), TAG_PRIORITY | p.round, 0)),
            // Blocks are deduplicated by content only; equivocation is
            // detected (and punished by falling back to the empty block)
            // at the proposal layer, not the relay layer.
            WireMessage::Block(_) => None,
            WireMessage::Vote(v) => Some((v.sender.to_bytes(), TAG_VOTE | v.round, v.step.code())),
            WireMessage::ForkProposal(f) => {
                Some((f.sender.to_bytes(), TAG_FORK | f.epoch, f.attempt))
            }
            // Transactions dedup by content; senders may submit many per
            // round.
            WireMessage::Transaction(_) => None,
            // Catch-up traffic never reaches the relay view.
            WireMessage::CatchupRequest { .. } => None,
            WireMessage::CatchupResponse(_) => None,
        }
    }

    /// The gossip-hop label and round the trace plane files this message
    /// under — one vocabulary for the simulator's hop spans and a real
    /// node's send/arrival instants, so a merged cluster trace and a
    /// simulator trace of the same run agree. A fork proposal is filed
    /// under the round of the block it proposes (its `epoch` is a wall-
    /// clock recovery counter, not a round). Transactions and catch-up
    /// traffic are not hop-traced.
    pub fn hop_label(&self) -> Option<(&'static str, u64)> {
        match self {
            WireMessage::Priority(p) => Some(("priority", p.round)),
            WireMessage::Block(b) => Some(("block_body", b.block.round)),
            WireMessage::Vote(v) => Some(("vote", v.round)),
            WireMessage::ForkProposal(f) => Some(("fork_body", f.block.round)),
            WireMessage::Transaction(_)
            | WireMessage::CatchupRequest { .. }
            | WireMessage::CatchupResponse(_) => None,
        }
    }

    /// Appends the canonical wire encoding: a tag byte plus the payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireMessage::Priority(p) => {
                out.put_u8(1);
                p.encode(out);
            }
            WireMessage::Block(b) => {
                out.put_u8(2);
                b.encode(out);
            }
            WireMessage::Vote(v) => {
                out.put_u8(3);
                v.encode(out);
            }
            WireMessage::ForkProposal(f) => {
                out.put_u8(4);
                f.encode(out);
            }
            WireMessage::Transaction(t) => {
                out.put_u8(5);
                t.encode(out);
            }
            WireMessage::CatchupRequest { have, tip_hash } => {
                out.put_u8(6);
                out.put_u64(*have);
                out.put_bytes(tip_hash);
            }
            WireMessage::CatchupResponse(batch) => {
                out.put_u8(7);
                out.put_u32(batch.entries.len() as u32);
                for (block, cert) in &batch.entries {
                    block.encode(out);
                    cert.encode(out);
                }
            }
        }
    }

    /// The canonical wire encoding as a fresh buffer.
    pub fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size() + 1);
        self.encode(&mut out);
        out
    }

    /// Decodes any wire message.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for unknown tags, truncation, or malformed
    /// payloads. Decoding establishes structure only; cryptographic and
    /// protocol validity are checked by the node's normal processing path.
    pub fn decode(r: &mut Reader<'_>) -> Result<WireMessage, DecodeError> {
        Ok(match r.u8()? {
            1 => WireMessage::Priority(PriorityMessage::decode(r)?),
            2 => WireMessage::Block(BlockMessage::decode(r)?),
            3 => WireMessage::Vote(VoteMessage::decode(r)?),
            4 => WireMessage::ForkProposal(ForkProposalMessage::decode(r)?),
            5 => WireMessage::Transaction(Transaction::decode(r)?),
            6 => WireMessage::CatchupRequest {
                have: r.u64()?,
                tip_hash: r.bytes32()?,
            },
            7 => {
                let n = r.u32()? as usize;
                if n > CatchupBatch::MAX_ENTRIES {
                    return Err(DecodeError::Invalid);
                }
                let start = r.offset();
                let mut entries = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    let block = Block::decode(r)?;
                    let cert = Certificate::decode(r)?;
                    // Enforced as decoding proceeds, so an oversized batch
                    // is abandoned at the boundary rather than after the
                    // whole allocation is already made.
                    if r.offset() - start > CatchupBatch::MAX_WIRE_BYTES {
                        return Err(DecodeError::Invalid);
                    }
                    entries.push((block, cert));
                }
                WireMessage::CatchupResponse(CatchupBatch { entries })
            }
            _ => return Err(DecodeError::Invalid),
        })
    }

    /// The kind of this message.
    pub fn kind(&self) -> WireKind {
        match self {
            WireMessage::Priority(_) => WireKind::Priority,
            WireMessage::Block(_) => WireKind::Block,
            WireMessage::Vote(_) => WireKind::Vote,
            WireMessage::ForkProposal(_) => WireKind::ForkProposal,
            WireMessage::Transaction(_) => WireKind::Transaction,
            WireMessage::CatchupRequest { .. } => WireKind::CatchupRequest,
            WireMessage::CatchupResponse(_) => WireKind::CatchupResponse,
        }
    }

    /// Decodes one whole frame (a socket transport's unit of delivery),
    /// requiring every byte to be consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`WireDecodeError`] carrying the message kind named by
    /// the tag byte (when readable) and the byte offset the decoder had
    /// reached, so the failure is attributable in transport logs.
    pub fn decode_frame(bytes: &[u8]) -> Result<WireMessage, WireDecodeError> {
        let kind = bytes.first().and_then(|&t| WireKind::from_tag(t));
        let mut r = Reader::new(bytes);
        let msg = WireMessage::decode(&mut r).map_err(|err| WireDecodeError {
            kind,
            offset: r.offset(),
            err,
        })?;
        let offset = r.offset();
        r.finish()
            .map_err(|err| WireDecodeError { kind, offset, err })?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_ba::StepKind;

    /// An entry whose block carries `payload` filler bytes, certified by
    /// a structurally valid (empty-vote) certificate. Decode-layer tests
    /// only need structure; nothing here is cryptographically checked.
    fn entry(round: u64, payload: usize) -> (Block, Certificate) {
        let mut block = Block::empty(round, [round as u8; 32], &[7u8; 32]);
        block.payload = vec![0xAB; payload];
        let cert = Certificate {
            round,
            step: StepKind::Final,
            value: block.hash(),
            votes: Vec::new(),
        };
        (block, cert)
    }

    #[test]
    fn hop_label_and_round_pinned_for_every_kind() {
        use crate::proposal::proposer_sortition;
        use algorand_ba::RoundWeights;
        use algorand_crypto::Keypair;

        let kp = Keypair::from_seed([1u8; 32]);
        let weights = RoundWeights::from_pairs([(kp.pk, 100u64)]);
        let (out, proof, _) =
            proposer_sortition(&kp, &[4u8; 32], 7, &weights, 100.0).expect("selected");
        let block = |round| Block::empty(round, [9u8; 32], &[8u8; 32]);
        let cases = [
            (
                WireMessage::Priority(PriorityMessage::sign(&kp, 7, out, proof, [7u8; 32])),
                Some(("priority", 7)),
            ),
            (
                WireMessage::Block(BlockMessage {
                    block: block(8),
                    sorthash: out,
                    sort_proof: proof,
                }),
                Some(("block_body", 8)),
            ),
            (
                WireMessage::Vote(VoteMessage::sign(
                    &kp,
                    9,
                    StepKind::Main(2),
                    out,
                    proof,
                    [9u8; 32],
                    [6u8; 32],
                )),
                Some(("vote", 9)),
            ),
            // Epoch 3, proposing a round-11 block: filed under round 11.
            (
                WireMessage::ForkProposal(ForkProposalMessage::sign(
                    &kp,
                    3,
                    0,
                    out,
                    proof,
                    block(11),
                )),
                Some(("fork_body", 11)),
            ),
            (
                WireMessage::Transaction(Transaction::payment(&kp, kp.pk, 1, 1)),
                None,
            ),
            (
                WireMessage::CatchupRequest {
                    have: 5,
                    tip_hash: [7u8; 32],
                },
                None,
            ),
            (
                WireMessage::CatchupResponse(CatchupBatch {
                    entries: vec![entry(1, 0)],
                }),
                None,
            ),
        ];
        // One case per tag byte: a new kind must be given a verdict here.
        for (tag, (msg, expected)) in (1u8..).zip(&cases) {
            assert_eq!(WireKind::from_tag(tag), Some(msg.kind()));
            assert_eq!(msg.hop_label(), *expected, "{}", msg.kind().name());
        }
        assert_eq!(WireKind::from_tag(cases.len() as u8 + 1), None);
    }

    #[test]
    fn catchup_batch_roundtrips() {
        let batch = CatchupBatch {
            entries: (1..=3).map(|r| entry(r, 100)).collect(),
        };
        let bytes = WireMessage::CatchupResponse(batch).encoded();
        let decoded = WireMessage::decode_frame(&bytes).expect("valid batch");
        let WireMessage::CatchupResponse(b) = decoded else {
            panic!("wrong kind");
        };
        assert_eq!(b.entries.len(), 3);
        assert_eq!(b.entries[1].0.round, 2);
    }

    #[test]
    fn oversized_catchup_batch_rejected_by_byte_bound() {
        // 9 entries of ~1 MiB each stay far below MAX_ENTRIES but cross
        // the byte bound — the OOM vector a real socket listener faces.
        let batch = CatchupBatch {
            entries: (1..=9).map(|r| entry(r, 1 << 20)).collect(),
        };
        let bytes = WireMessage::CatchupResponse(batch).encoded();
        assert!(bytes.len() > CatchupBatch::MAX_WIRE_BYTES);
        let err = WireMessage::decode_frame(&bytes).expect_err("must reject");
        assert_eq!(err.kind, Some(WireKind::CatchupResponse));
        assert_eq!(err.err, DecodeError::Invalid);
        // The decoder abandons the batch at the entry that crossed the
        // bound, not after consuming the whole input.
        assert!(err.offset <= CatchupBatch::MAX_WIRE_BYTES + (2 << 20));
    }

    #[test]
    fn entry_count_bound_still_enforced() {
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&(CatchupBatch::MAX_ENTRIES as u32 + 1).to_le_bytes());
        let err = WireMessage::decode_frame(&bytes).expect_err("must reject");
        assert_eq!(err.kind, Some(WireKind::CatchupResponse));
        assert_eq!(err.err, DecodeError::Invalid);
    }

    #[test]
    fn decode_failures_carry_kind_and_offset() {
        // A truncated vote frame: tag byte for Vote, then nothing.
        let err = WireMessage::decode_frame(&[3u8]).expect_err("truncated");
        assert_eq!(err.kind, Some(WireKind::Vote));
        assert_eq!(err.err, DecodeError::UnexpectedEnd);
        assert_eq!(err.offset, 1);
        assert!(err.to_string().contains("vote"));
        // An unknown tag has no kind to attribute.
        let err = WireMessage::decode_frame(&[99u8]).expect_err("bad tag");
        assert_eq!(err.kind, None);
        // Trailing garbage after a valid message is an error too.
        let mut bytes = WireMessage::CatchupRequest {
            have: 5,
            tip_hash: [7u8; 32],
        }
        .encoded();
        bytes.push(0);
        let err = WireMessage::decode_frame(&bytes).expect_err("trailing");
        assert_eq!(err.err, DecodeError::TrailingBytes);
        assert_eq!(err.kind, Some(WireKind::CatchupRequest));
    }
}
