//! Stage 1 of the staged message pipeline: ingest.
//!
//! Wire decoding lives in [`crate::wire`] and content-addressed
//! deduplication in the gossip relay; what remains here is the per-round
//! classification that decides where a decoded message goes next:
//! straight to the verify stage, into a buffer, or nowhere. A node that
//! has fallen behind learns so from its peers' STATUS tips, not from
//! votes: catching up is blocksync's ([`crate::Process`]).

/// How far ahead of the local round incoming votes are buffered.
pub const FUTURE_ROUND_WINDOW: u64 = 3;

/// Where a message for `msg_round` belongs relative to the local round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundClass {
    /// This round: verify and process now (or buffer until BA⋆ starts).
    Current,
    /// Within [`FUTURE_ROUND_WINDOW`]: buffer for replay.
    NearFuture,
    /// Beyond the window: dropped.
    FarFuture,
    /// Already completed locally: drop.
    Past,
}

/// Classifies a message round against the node's current round.
pub fn classify_round(msg_round: u64, current: u64) -> RoundClass {
    if msg_round == current {
        RoundClass::Current
    } else if msg_round < current {
        RoundClass::Past
    } else if msg_round <= current + FUTURE_ROUND_WINDOW {
        RoundClass::NearFuture
    } else {
        RoundClass::FarFuture
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_boundaries() {
        assert_eq!(classify_round(5, 5), RoundClass::Current);
        assert_eq!(classify_round(4, 5), RoundClass::Past);
        assert_eq!(classify_round(0, 5), RoundClass::Past);
        assert_eq!(classify_round(6, 5), RoundClass::NearFuture);
        assert_eq!(
            classify_round(5 + FUTURE_ROUND_WINDOW, 5),
            RoundClass::NearFuture
        );
        assert_eq!(
            classify_round(5 + FUTURE_ROUND_WINDOW + 1, 5),
            RoundClass::FarFuture
        );
    }
}
