//! The transport model: per-process bandwidth caps, inter-city latency,
//! jitter, and fault injection (§10's testbed conditions).
//!
//! Every simulated process has a 20 Mbit/s uplink (the paper's cap on each
//! Algorand process). A message of S bytes occupies the sender's uplink for
//! `8·S / bandwidth` seconds — transmissions serialize, which is exactly
//! what makes large blocks dominate round latency in Figure 7 — then takes
//! one inter-city one-way latency (±jitter) to arrive.
//!
//! Fault injection layers, applied in order to every send, all set by
//! the scripted [`crate::faults::FaultSchedule`]:
//!
//! 1. the installed [`PartitionSpec`] (group-to-group link blocking:
//!    symmetric, asymmetric, or a targeted node set that cannot send),
//! 2. deterministic per-send packet loss at the current loss rate (0
//!    until a [`crate::faults::FaultAction::Loss`] sets it), sampled
//!    from the seeded RNG,
//! 3. an optional delay spike (multiplicative factor plus a constant)
//!    on the propagation latency.
//!
//! Drops are counted per cause so the chaos harness can report them.

use crate::event::Micros;
use crate::latency::LatencyMatrix;
use algorand_crypto::rng::Rng;

/// Per-process uplink bandwidth in bits per second (paper: 20 Mbit/s).
const BANDWIDTH_BPS: u64 = 20_000_000;
/// Multiplicative jitter applied to latency (±10%).
const JITTER_FRAC: f64 = 0.1;
/// Seed of the RNG behind jitter and loss draws.
const SEED: u64 = 42;

/// A data-driven network partition: each node belongs to a group, and a
/// set of ordered `(from_group, to_group)` pairs is blocked. Symmetric
/// bipartitions block both directions; asymmetric ones block only one,
/// modelling links that fail in a single direction.
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    /// Group id of each node.
    pub group_of: Vec<u8>,
    /// Ordered group pairs whose links are cut.
    pub blocked: Vec<(u8, u8)>,
}

impl PartitionSpec {
    /// A symmetric bipartition: nodes `< split` vs the rest, no traffic
    /// across in either direction.
    pub fn bipartition(n: usize, split: usize) -> PartitionSpec {
        PartitionSpec {
            group_of: (0..n).map(|i| u8::from(i >= split)).collect(),
            blocked: vec![(0, 1), (1, 0)],
        }
    }

    /// An asymmetric partition: the first group's messages still reach
    /// the second, but nothing flows back.
    pub fn asymmetric(n: usize, split: usize) -> PartitionSpec {
        PartitionSpec {
            group_of: (0..n).map(|i| u8::from(i >= split)).collect(),
            blocked: vec![(1, 0)],
        }
    }

    /// Whether a send from `from` to `to` is blocked.
    pub fn blocks(&self, from: usize, to: usize) -> bool {
        let (gf, gt) = (self.group_of[from], self.group_of[to]);
        gf != gt && self.blocked.contains(&(gf, gt))
    }
}

/// The simulated transport.
pub struct Network {
    latency: LatencyMatrix,
    city_of: Vec<usize>,
    uplink_free: Vec<Micros>,
    rng: Rng,
    bytes_sent: Vec<u64>,
    bytes_received: Vec<u64>,
    partition: Option<PartitionSpec>,
    loss_prob: f64,
    /// Latency distortion: `(factor, extra)` applied as
    /// `latency * factor + extra`.
    delay_spike: Option<(f64, Micros)>,
    dropped_by_partition: u64,
    dropped_by_loss: u64,
}

impl Network {
    /// Creates a lossless transport for `n` nodes, assigned round-robin
    /// to the 20 modelled cities.
    pub fn new(n: usize) -> Network {
        let latency = LatencyMatrix::new();
        let cities = latency.n_cities();
        Network {
            city_of: (0..n).map(|i| i % cities).collect(),
            uplink_free: vec![0; n],
            rng: Rng::seed_from_u64(SEED),
            bytes_sent: vec![0; n],
            bytes_received: vec![0; n],
            partition: None,
            loss_prob: 0.0,
            delay_spike: None,
            dropped_by_partition: 0,
            dropped_by_loss: 0,
            latency,
        }
    }

    /// Installs (or heals, with `None`) a partition.
    pub fn set_partition(&mut self, partition: Option<PartitionSpec>) {
        self.partition = partition;
    }

    /// Sets the per-send packet-loss probability (0 disables sampling).
    pub fn set_loss_prob(&mut self, prob: f64) {
        self.loss_prob = prob;
    }

    /// Distorts propagation latency to `latency * factor + extra`
    /// (`None` restores normal latency).
    pub fn set_delay_spike(&mut self, spike: Option<(f64, Micros)>) {
        self.delay_spike = spike;
    }

    /// Transmits `size` bytes from `from` to `to` starting at `now`.
    ///
    /// Returns the arrival time, or `None` when a partition or loss
    /// draw drops the message. Either way the sender's uplink is
    /// consumed: a sender cannot tell that the network discarded its
    /// packets.
    pub fn transmit(&mut self, from: usize, to: usize, size: usize, now: Micros) -> Option<Micros> {
        let tx_time = serialization_micros(size, BANDWIDTH_BPS);
        let start = self.uplink_free[from].max(now);
        self.uplink_free[from] = start + tx_time;
        self.bytes_sent[from] += size as u64;
        if let Some(p) = &self.partition {
            if p.blocks(from, to) {
                self.dropped_by_partition += 1;
                return None;
            }
        }
        if self.loss_prob > 0.0 && self.rng.gen_f64() < self.loss_prob {
            self.dropped_by_loss += 1;
            return None;
        }
        self.bytes_received[to] += size as u64;
        let base = self.latency.one_way(self.city_of[from], self.city_of[to]);
        let jitter = 1.0 + JITTER_FRAC * (self.rng.gen_f64() * 2.0 - 1.0);
        let mut lat = (base as f64 * jitter) as Micros;
        if let Some((factor, extra)) = self.delay_spike {
            lat = (lat as f64 * factor) as Micros + extra;
        }
        Some(self.uplink_free[from] + lat)
    }

    /// A lower bound on the delay between any send and its arrival under
    /// the *current* network conditions — the conservative-lookahead
    /// contract of the parallel DES engine: a message entering the
    /// network at time `t` is delivered no earlier than
    /// `t + min_delay()`. Accounts for downward jitter and for the
    /// active delay spike, with a small margin for the integer flooring
    /// the transmit path applies. Serialization and uplink queueing only
    /// add delay, so they never lower the bound. Network conditions only
    /// change at scripted fault instants, which the DES engine treats as
    /// window barriers, so the bound is stable within any one window.
    /// Always at least 1 µs.
    pub fn min_delay(&self) -> Micros {
        let base = self.latency.min_one_way() as f64;
        let jittered = base * (1.0 - JITTER_FRAC);
        let spiked = match self.delay_spike {
            Some((factor, extra)) => jittered * factor.max(0.0) + extra as f64,
            None => jittered,
        };
        (spiked.floor() as Micros).saturating_sub(2).max(1)
    }

    /// Total bytes sent by a node.
    pub fn bytes_sent(&self, node: usize) -> u64 {
        self.bytes_sent[node]
    }

    /// Total bytes received by a node.
    pub fn bytes_received(&self, node: usize) -> u64 {
        self.bytes_received[node]
    }

    /// Sum of bytes sent across all nodes.
    pub fn total_bytes_sent(&self) -> u64 {
        self.bytes_sent.iter().sum()
    }

    /// Sends dropped by the installed partition.
    pub fn dropped_by_partition(&self) -> u64 {
        self.dropped_by_partition
    }

    /// Sends dropped by random packet loss.
    pub fn dropped_by_loss(&self) -> u64 {
        self.dropped_by_loss
    }
}

/// Microseconds to put `size` bytes on a `bandwidth_bps` uplink, floored:
/// `size · 8 · 10^6 / bandwidth_bps`. Every realistic size fits the
/// product in a `u64`; only a product that overflows takes the `u128`
/// division.
fn serialization_micros(size: usize, bandwidth_bps: u64) -> Micros {
    match (size as u64).checked_mul(8_000_000) {
        Some(bit_micros) => bit_micros / bandwidth_bps,
        None => (size as u128 * 8_000_000 / u128::from(bandwidth_bps)) as Micros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_matches_the_u128_form() {
        let wide = |size: usize, bps: u64| (size as u128 * 8 * 1_000_000 / bps as u128) as Micros;
        // The last size whose product fits, and the first that overflows.
        let edge = (u64::MAX / 8_000_000) as usize;
        let mut sizes: Vec<usize> = (0..=32).flat_map(|k| [(1usize << k) - 1, 1 << k]).collect();
        sizes.extend([
            1_000,
            1_500,
            16_384,
            1 << 20,
            edge - 1,
            edge,
            edge + 1,
            usize::MAX,
        ]);
        let mut rng = Rng::seed_from_u64(5);
        sizes.extend((0..1_000).map(|_| rng.gen_range_u64(1 << 32) as usize));
        for bps in [1, 3, 8_000_000, 20_000_000, 1_000_000_007, u64::MAX] {
            for &size in &sizes {
                assert_eq!(
                    serialization_micros(size, bps),
                    wide(size, bps),
                    "{size} B at {bps} b/s"
                );
            }
        }
    }

    #[test]
    fn bandwidth_serializes_transmissions() {
        let mut net = Network::new(2);
        // Two 1 MB messages back to back: at 20 Mbit/s the second leaves
        // 0.4 s later, and jitter moves the two arrivals apart by at most
        // twice its fraction of the latency.
        let spread = (2.0 * JITTER_FRAC * LatencyMatrix::new().one_way(0, 1) as f64) as Micros;
        let a1 = net.transmit(0, 1, 1_000_000, 0).unwrap();
        let a2 = net.transmit(0, 1, 1_000_000, 0).unwrap();
        assert!(a2 + spread >= a1 + 400_000, "a1={a1} a2={a2}");
        assert_eq!(net.bytes_sent(0), 2_000_000);
        assert_eq!(net.bytes_received(1), 2_000_000);
    }

    #[test]
    fn small_messages_are_latency_bound() {
        let mut net = Network::new(2);
        let arrival = net.transmit(0, 1, 300, 0).unwrap();
        // 300 bytes at 20 Mbit/s is 120 µs of serialization; the rest is
        // propagation (≥ 1 ms even within a city).
        assert!(arrival >= 1_000, "arrival {arrival}");
        assert!(arrival < 200_000, "arrival {arrival}");
    }

    #[test]
    fn partition_drops_but_consumes_uplink() {
        let mut net = Network::new(3);
        // Nodes 1 and 2 cannot reach node 0, but still reach each other.
        net.set_partition(Some(PartitionSpec::asymmetric(3, 1)));
        assert!(net.transmit(1, 0, 1_000_000, 0).is_none());
        assert_eq!(net.bytes_sent(1), 1_000_000);
        assert_eq!(net.bytes_received(0), 0);
        assert_eq!(net.dropped_by_partition(), 1);
        // The dropped megabyte still held node 1's uplink for 0.4 s: its
        // next send, which the partition lets through, queues behind it.
        let next = net.transmit(1, 2, 100, 0).unwrap();
        assert!(next >= 400_000, "next {next}");
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let mut net = Network::new(20);
        let base = LatencyMatrix::new().one_way(0, 1);
        for _ in 0..100 {
            let arrival = net.transmit(0, 1, 1, 0);
            let lat = arrival.unwrap();
            assert!(
                (lat as f64) < base as f64 * 1.11 + 10.0,
                "lat {lat} base {base}"
            );
        }
    }

    #[test]
    fn loss_prob_drops_close_to_rate() {
        let mut net = Network::new(2);
        net.set_loss_prob(0.3);
        let mut dropped = 0;
        for _ in 0..1000 {
            if net.transmit(0, 1, 100, 0).is_none() {
                dropped += 1;
            }
        }
        assert_eq!(net.dropped_by_loss(), dropped);
        assert!((200..400).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    fn loss_sampling_is_deterministic_per_seed() {
        let run = || {
            let mut net = Network::new(2);
            net.set_loss_prob(0.5);
            (0..64)
                .map(|_| net.transmit(0, 1, 100, 0).is_some())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn symmetric_partition_blocks_both_ways() {
        let mut net = Network::new(4);
        net.set_partition(Some(PartitionSpec::bipartition(4, 2)));
        assert!(net.transmit(0, 2, 10, 0).is_none());
        assert!(net.transmit(2, 0, 10, 0).is_none());
        assert!(net.transmit(0, 1, 10, 0).is_some());
        assert!(net.transmit(2, 3, 10, 0).is_some());
        assert_eq!(net.dropped_by_partition(), 2);
        net.set_partition(None);
        assert!(net.transmit(0, 2, 10, 0).is_some());
    }

    #[test]
    fn asymmetric_partition_blocks_one_way() {
        let mut net = Network::new(4);
        net.set_partition(Some(PartitionSpec::asymmetric(4, 2)));
        // Group 0 → group 1 passes; group 1 → group 0 is cut.
        assert!(net.transmit(0, 2, 10, 0).is_some());
        assert!(net.transmit(2, 0, 10, 0).is_none());
        assert_eq!(net.dropped_by_partition(), 1);
    }

    #[test]
    fn min_delay_lower_bounds_every_arrival() {
        let mut net = Network::new(20);
        for spike in [None, Some((3.0, 50_000)), Some((0.5, 0))] {
            net.set_delay_spike(spike);
            let bound = net.min_delay();
            assert!(bound >= 1);
            for from in 0..20 {
                for to in 0..20 {
                    let now = net.uplink_free[from];
                    if let Some(arrival) = net.transmit(from, to, 1, now) {
                        assert!(
                            arrival >= now + bound,
                            "spike {spike:?}: {from}->{to} arrived {arrival} < {now}+{bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn delay_spike_inflates_latency() {
        // Jitter keeps each latency within ±10% of the base, so a
        // threefold spike still more than doubles it.
        let mut net = Network::new(2);
        let normal = net.transmit(0, 1, 1, 0).unwrap();
        net.set_delay_spike(Some((3.0, 50_000)));
        let spiked = net.transmit(0, 1, 1, 0).unwrap();
        assert!(
            spiked >= normal * 2 + 50_000,
            "normal {normal} spiked {spiked}"
        );
        net.set_delay_spike(None);
        let healed = net.transmit(0, 1, 1, 0).unwrap();
        assert!(healed < spiked, "healed {healed} spiked {spiked}");
    }
}
