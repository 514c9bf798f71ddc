//! The node's config file, plus the deterministic derivations (keys,
//! genesis, workload) shared with the simulator.
//!
//! A config is a plain `key = value` file ('#' starts a comment):
//!
//! ```text
//! # identity and deployment shape
//! index = 0
//! n_users = 5
//! stake_per_user = 10
//! seed = 1
//! # networking
//! listen = 127.0.0.1:9000
//! peer = 127.0.0.1:9001
//! peer = 127.0.0.1:9002
//! # durability and lifecycle: wal_dir holds the WAL (every final
//! # round, written once), digest, trace and metrics
//! wal_dir = /tmp/algorand-node-0
//! target_round = 6
//! deadline_secs = 120
//! linger_secs = 3
//! min_peers = 0
//! start_at_ms = 0
//! # workload and observability
//! tx_count = 24
//! trace = 0
//! ```
//!
//! The derivations are `algorand_core::params`'s — the ones the
//! simulator uses — which is what lets a localhost deployment be
//! cross-checked against the simulator's chain digest for the same
//! `seed`.

use algorand_core::AlgorandParams;
use algorand_crypto::rng::Rng;
use algorand_crypto::Keypair;
use algorand_ledger::{Blockchain, Transaction};
use algorand_obs::MonitorConfig;
use std::io;
use std::path::PathBuf;

pub use algorand_core::derive_keypairs;

/// Configuration for one `algorand-node` process.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This node's index in the deployment (selects its keypair).
    pub index: usize,
    /// Total users in the deployment (all must agree).
    pub n_users: usize,
    /// Currency units per user (equal split, as in §10).
    pub stake_per_user: u64,
    /// Deployment seed: keys, genesis workload (all must agree).
    pub seed: u64,
    /// TCP listen address, e.g. `127.0.0.1:9000`.
    pub listen: String,
    /// Peer addresses this node dials, retrying forever; anyone may also
    /// dial in. A deployment lists every process started before this one.
    pub peers: Vec<String>,
    /// Directory for the WAL, digest, trace and metrics files.
    pub wal_dir: PathBuf,
    /// Exit (successfully) once the chain reaches this round; 0 runs
    /// until the deadline.
    pub target_round: u64,
    /// Hard wall-clock lifetime in seconds; exceeding it is a failure
    /// when `target_round` was set.
    pub deadline_secs: u64,
    /// Seconds to keep serving peers (votes already sent, catch-up
    /// batches) after reaching `target_round`, so stragglers finish.
    pub linger_secs: u64,
    /// Size of the deterministic preloaded workload (all must agree).
    pub tx_count: usize,
    /// Wait for this many live connections before starting consensus
    /// (processes launch in arbitrary order; gossip sent into an empty
    /// mesh is simply lost).
    pub min_peers: usize,
    /// Unix milliseconds before which consensus must not start (0 =
    /// start as soon as `min_peers` is met). Processes on one host
    /// share a wall clock, so this aligns their round-1 openings to
    /// within milliseconds — well inside λ_priority.
    pub start_at_ms: u64,
    /// Record a bounded trace and export it on exit.
    pub trace: bool,
}

impl Default for NodeConfig {
    fn default() -> NodeConfig {
        NodeConfig {
            index: 0,
            n_users: 5,
            stake_per_user: 10,
            seed: 1,
            listen: "127.0.0.1:9000".into(),
            peers: Vec::new(),
            wal_dir: PathBuf::from("."),
            target_round: 0,
            deadline_secs: 120,
            linger_secs: 3,
            tx_count: 0,
            min_peers: 0,
            start_at_ms: 0,
            trace: false,
        }
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl NodeConfig {
    /// Parses a config file.
    ///
    /// # Errors
    ///
    /// Returns an error for unreadable files, unknown keys, or
    /// unparsable values — a misconfigured node should refuse to start,
    /// not limp into a deployment it disagrees with.
    pub fn load(path: &std::path::Path) -> io::Result<NodeConfig> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text)
    }

    /// Parses config text (see the module docs for the format).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown keys or unparsable values.
    pub fn parse(text: &str) -> io::Result<NodeConfig> {
        let mut cfg = NodeConfig::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| bad(format!("line {}: expected key = value", lineno + 1)))?;
            let (key, value) = (key.trim(), value.trim());
            let parse_u64 = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| bad(format!("line {}: bad number {v:?}", lineno + 1)))
            };
            match key {
                "index" => cfg.index = parse_u64(value)? as usize,
                "n_users" => cfg.n_users = parse_u64(value)? as usize,
                "stake_per_user" => cfg.stake_per_user = parse_u64(value)?,
                "seed" => cfg.seed = parse_u64(value)?,
                "listen" => cfg.listen = value.to_string(),
                "peer" => cfg.peers.push(value.to_string()),
                "wal_dir" => cfg.wal_dir = PathBuf::from(value),
                "target_round" => cfg.target_round = parse_u64(value)?,
                "deadline_secs" => cfg.deadline_secs = parse_u64(value)?,
                "linger_secs" => cfg.linger_secs = parse_u64(value)?,
                "tx_count" => cfg.tx_count = parse_u64(value)? as usize,
                "min_peers" => cfg.min_peers = parse_u64(value)? as usize,
                "start_at_ms" => cfg.start_at_ms = parse_u64(value)?,
                "trace" => cfg.trace = value == "true" || value == "1",
                _ => return Err(bad(format!("line {}: unknown key {key:?}", lineno + 1))),
            }
        }
        if cfg.n_users == 0 || cfg.index >= cfg.n_users {
            return Err(bad(format!(
                "index {} out of range for n_users {}",
                cfg.index, cfg.n_users
            )));
        }
        Ok(cfg)
    }

    /// Renders the config back to file syntax (what the orchestration
    /// harness writes).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut kv = |k: &str, v: String| {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(&v);
            out.push('\n');
        };
        kv("index", self.index.to_string());
        kv("n_users", self.n_users.to_string());
        kv("stake_per_user", self.stake_per_user.to_string());
        kv("seed", self.seed.to_string());
        kv("listen", self.listen.clone());
        for p in &self.peers {
            kv("peer", p.clone());
        }
        kv("wal_dir", self.wal_dir.display().to_string());
        kv("target_round", self.target_round.to_string());
        kv("deadline_secs", self.deadline_secs.to_string());
        kv("linger_secs", self.linger_secs.to_string());
        kv("tx_count", self.tx_count.to_string());
        kv("min_peers", self.min_peers.to_string());
        kv("start_at_ms", self.start_at_ms.to_string());
        kv("trace", if self.trace { "1" } else { "0" }.to_string());
        out
    }

    /// The protocol parameters this deployment runs: the laptop-scaled
    /// set with canonical timestamps (required for the digest cross-check
    /// against the simulator).
    pub fn params(&self) -> AlgorandParams {
        let mut p = AlgorandParams::scaled_with_stake(self.n_users, self.stake_per_user);
        p.chain.canonical_timestamps = true;
        p
    }

    /// The in-process invariant-monitor thresholds this deployment
    /// implies, so a live node holds its own trace stream to the exact
    /// standard the simulator holds the fleet's. A deployment config has
    /// no adversary roster; all users count as honest, the strictest
    /// reading.
    pub fn monitor_config(&self) -> MonitorConfig {
        let total_weight = self.n_users as u64 * self.stake_per_user;
        self.params().monitor_config(total_weight, self.n_users)
    }

    /// This node's keypair.
    pub fn keypair(&self) -> Keypair {
        derive_keypairs(self.seed, self.n_users).swap_remove(self.index)
    }

    /// The shared genesis chain.
    pub fn genesis(&self) -> Blockchain {
        let keypairs = derive_keypairs(self.seed, self.n_users);
        self.params().genesis(&keypairs, self.stake_per_user)
    }

    /// The deterministic preloaded workload for this deployment.
    pub fn workload(&self) -> Vec<Transaction> {
        let keypairs = derive_keypairs(self.seed, self.n_users);
        workload_transactions(self.seed, &keypairs, self.stake_per_user, self.tx_count)
    }
}

/// Generates the deterministic preloaded workload: `count` random
/// payments between deployment users, nonces consecutive per sender,
/// amounts conservatively bounded by genesis stake so every transaction
/// stays applicable in whatever round it commits.
///
/// Signatures are deterministic, so every process — and the simulator's
/// reference run — derives bit-identical transactions from `(seed,
/// keypairs, count)`. With identical mempools everywhere before round 1,
/// block assembly is a pure function of the chain.
pub fn workload_transactions(
    seed: u64,
    keypairs: &[Keypair],
    stake_per_user: u64,
    count: usize,
) -> Vec<Transaction> {
    let n = keypairs.len();
    let mut rng = Rng::seed_from_u64(seed ^ 0x010C_A1C0_FFEE);
    let mut nonces = vec![0u64; n];
    let mut spendable = vec![stake_per_user; n];
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let amount = 1 + rng.next_u64() % 3;
        let Some(sender) = (0..n)
            .map(|_| (rng.next_u64() % n as u64) as usize)
            .find(|&c| spendable[c] >= amount)
            .or_else(|| (0..n).find(|&i| spendable[i] >= amount))
        else {
            break; // Spendable stake exhausted.
        };
        let mut to = (rng.next_u64() % n as u64) as usize;
        if to == sender {
            to = (to + 1) % n;
        }
        nonces[sender] += 1;
        spendable[sender] -= amount;
        out.push(Transaction::payment(
            &keypairs[sender],
            keypairs[to].pk,
            amount,
            nonces[sender],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_roundtrips_through_render() {
        let cfg = NodeConfig {
            index: 2,
            n_users: 5,
            listen: "127.0.0.1:9102".into(),
            peers: vec!["127.0.0.1:9100".into(), "127.0.0.1:9101".into()],
            wal_dir: PathBuf::from("/tmp/x"),
            target_round: 6,
            tx_count: 24,
            trace: true,
            ..NodeConfig::default()
        };
        let parsed = NodeConfig::parse(&cfg.render()).expect("parses");
        assert_eq!(parsed.index, 2);
        assert_eq!(parsed.peers.len(), 2);
        assert_eq!(parsed.target_round, 6);
        assert!(parsed.trace);
        assert_eq!(
            parsed.params().lambda_priority,
            AlgorandParams::scaled_with_stake(5, 10).lambda_priority
        );
        assert!(parsed.params().chain.canonical_timestamps);
    }

    #[test]
    fn unknown_keys_and_bad_index_rejected() {
        assert!(NodeConfig::parse("frobnicate = 3").is_err());
        assert!(NodeConfig::parse("index = 7\nn_users = 5").is_err());
        assert!(NodeConfig::parse("lambda_step_ms = 1").is_err());
    }

    #[test]
    fn monitor_config_bounds_are_sane() {
        let cfg = NodeConfig::default();
        let mc = cfg.monitor_config();
        let total = cfg.n_users as u64 * cfg.stake_per_user;
        // The tail bound always admits the expected committee weight
        // and never exceeds the whole population.
        assert!(mc.committee_hi_step <= total);
        assert!(mc.committee_hi_final <= total);
        assert!(mc.committee_hi_step >= cfg.params().ba.tau_step.min(total as f64) as u64);
        assert_eq!(mc.honest_nodes, cfg.n_users as u32);
        assert!(mc.max_future_gap > 0);
    }

    #[test]
    fn workload_is_deterministic_and_admissible() {
        let kps = derive_keypairs(1, 5);
        let a = workload_transactions(1, &kps, 10, 24);
        let b = workload_transactions(1, &kps, 10, 24);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id(), y.id());
        }
        // Per-sender nonces are consecutive from 1.
        for (i, kp) in kps.iter().enumerate() {
            for (expected, tx) in (1u64..).zip(a.iter().filter(|t| t.from == kp.pk)) {
                assert_eq!(tx.nonce, expected, "sender {i}");
            }
        }
    }
}
