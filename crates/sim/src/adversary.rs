//! Adversarial node behaviours (§10.4 and the safety experiments).
//!
//! The paper's misbehaving-user experiment (Figure 8) forces the
//! highest-priority proposer to equivocate — one version of the block to
//! half its peers, another to the rest — while malicious committee members
//! vote for both versions. [`Adversary`] implements exactly that: a
//! malicious user runs the honest [`algorand_core::Process`] (so it stays
//! in sync and holds real stake), and the adversary rewrites what it
//! broadcasts.

use algorand_ba::VoteMessage;
use algorand_core::{BlockMessage, PriorityMessage, WireMessage};
use algorand_crypto::Keypair;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// How an outgoing message should be distributed.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // Moved once from node to transport.
pub enum Outgoing {
    /// Gossip normally to all peers.
    Broadcast(WireMessage),
    /// Send the first message to even-indexed peers and the second to
    /// odd-indexed peers (the equivocation split).
    Split(WireMessage, WireMessage),
}

/// State shared by all malicious nodes (they collude, §10.4).
///
/// Behind `Arc<Mutex>` so malicious nodes can live on DES worker
/// threads; the engine keeps every malicious node in one work unit, so
/// coalition state is always mutated in canonical event order and runs
/// stay deterministic at any worker count.
#[derive(Default)]
pub struct AdversaryShared {
    /// Per round: the pair of equivocated block hashes, once some malicious
    /// proposer has produced them.
    pub equivocations: HashMap<u64, ([u8; 32], [u8; 32])>,
    /// Block bodies suppressed by withholding proposers (attack-coverage
    /// evidence for the §6 worst-case tests).
    pub withheld_blocks: u64,
}

/// Which attack a malicious node mounts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AdversaryKind {
    /// §10.4: equivocate blocks and votes across peer halves.
    #[default]
    Equivocator,
    /// §6's worst-case proposer: advertise a priority but withhold the
    /// block body, forcing honest users to burn λ_block and fall back to
    /// the empty block.
    Withholder,
}

/// A colluding malicious user's rewriting of its own broadcasts.
pub struct Adversary {
    /// The user's keypair: the twin messages are forged under its real
    /// identity.
    pub(crate) keypair: Keypair,
    pub(crate) kind: AdversaryKind,
    pub(crate) shared: Arc<Mutex<AdversaryShared>>,
}

impl Adversary {
    /// Rewrites one batch of what the user's process broadcast, in order.
    pub fn rewrite(&mut self, outputs: Vec<WireMessage>) -> Vec<Outgoing> {
        let own = self.keypair.pk;
        if self.kind == AdversaryKind::Withholder {
            // Advertise our proposals but never send the block body; the
            // inner node otherwise behaves honestly (it still votes — a
            // pure withholder loses nothing by voting its own ghost block,
            // which no honest user will ever certify).
            return outputs
                .into_iter()
                .filter(|m| {
                    let withheld =
                        matches!(m, WireMessage::Block(b) if b.block.proposer == Some(own));
                    if withheld {
                        self.shared.lock().expect("adversary lock").withheld_blocks += 1;
                    }
                    !withheld
                })
                .map(Outgoing::Broadcast)
                .collect();
        }
        // First pass: if we proposed a block in this batch, build the
        // equivocated twin and record the pair for the whole coalition.
        let mut twin: Option<(BlockMessage, PriorityMessage, PriorityMessage)> = None;
        for msg in &outputs {
            let WireMessage::Block(b) = msg else { continue };
            if b.block.proposer != Some(own) {
                continue;
            }
            let mut other = b.block.clone();
            // A different payload makes a different block hash; the seed,
            // proposer, and transactions stay identical so both versions
            // validate.
            other.payload.push(0xa5);
            let other_hash = other.hash();
            let round = other.round;
            self.shared
                .lock()
                .expect("adversary lock")
                .equivocations
                .insert(round, (b.block.hash(), other_hash));
            let prio_a = PriorityMessage::sign(
                &self.keypair,
                round,
                b.sorthash,
                b.sort_proof,
                b.block.hash(),
            );
            let prio_b =
                PriorityMessage::sign(&self.keypair, round, b.sorthash, b.sort_proof, other_hash);
            twin = Some((
                BlockMessage {
                    block: other,
                    sorthash: b.sorthash,
                    sort_proof: b.sort_proof,
                },
                prio_a,
                prio_b,
            ));
        }
        let mut out = Vec::new();
        for msg in outputs {
            match msg {
                WireMessage::Block(b) if twin.is_some() => {
                    let (other, _, _) = twin.as_ref().expect("checked");
                    out.push(Outgoing::Split(
                        WireMessage::Block(b),
                        WireMessage::Block(other.clone()),
                    ));
                }
                WireMessage::Priority(_) if twin.is_some() => {
                    let (_, pa, pb) = twin.as_ref().expect("checked");
                    out.push(Outgoing::Split(
                        WireMessage::Priority(pa.clone()),
                        WireMessage::Priority(pb.clone()),
                    ));
                }
                WireMessage::Vote(v) => out.push(self.rewrite_vote(v)),
                other => out.push(Outgoing::Broadcast(other)),
            }
        }
        out
    }

    /// Committee votes: vote for *both* equivocated blocks, one to each
    /// half of the network.
    fn rewrite_vote(&self, v: VoteMessage) -> Outgoing {
        let shared = self.shared.lock().expect("adversary lock");
        let Some((a, b)) = shared.equivocations.get(&v.round) else {
            return Outgoing::Broadcast(WireMessage::Vote(v));
        };
        // Only rewrite votes about one of the twin blocks; votes for the
        // empty hash pass through unchanged.
        if v.value != *a && v.value != *b {
            return Outgoing::Broadcast(WireMessage::Vote(v));
        }
        let vote_a = VoteMessage::sign(
            &self.keypair,
            v.round,
            v.step,
            v.sorthash,
            v.sort_proof,
            v.prev_hash,
            *a,
        );
        let vote_b = VoteMessage::sign(
            &self.keypair,
            v.round,
            v.step,
            v.sorthash,
            v.sort_proof,
            v.prev_hash,
            *b,
        );
        Outgoing::Split(WireMessage::Vote(vote_a), WireMessage::Vote(vote_b))
    }
}
