//! The `localnet` workload: real node processes over loopback TCP, each
//! with a WAL on disk, observed only through what they publish — their
//! `addr`, `digest` and `metrics.txt` files, the growth of their WAL
//! files, and `/proc`.
//!
//! No delay is injected between the processes: messages cross the
//! loopback interface as fast as the kernel moves them, so a round's
//! length here is the protocol's λ waits plus CPU, never network.

use crate::observe::{Counts, Exposition};
use crate::procfs;
use algorand_ba::ConsensusKind;
use algorand_node::config::{derive_keypairs, workload_transactions};
use algorand_node::{NodeConfig, Runtime};
use algorand_sim::{SimConfig, Simulation};
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// How long the deployment gets to bind, preload and form its mesh before
/// the shared start instant. Not part of any metric: nodes idle here.
const START_MARGIN_MS: u64 = 2_000;

/// WAL and digest polling period. Sets the resolution of every
/// wall-clock instant taken from outside (0.2% of a 2 s round).
const POLL: Duration = Duration::from_millis(4);

/// `/proc/<pid>/status` is polled on every this-many-th WAL poll.
const RSS_EVERY: u32 = 12;

/// How long a node that has reached the target keeps serving its peers
/// before it writes its digest and exits; part of `run_wall_s`.
pub const LINGER_SECS: u64 = 1;

/// Gives up on a deployment after this long; its nodes are killed and
/// the run reports a failure.
const RUN_TIMEOUT: Duration = Duration::from_secs(120);

#[derive(Clone, Copy, Debug)]
pub struct LocalnetSpec {
    pub nodes: usize,
    pub stake_per_user: u64,
    /// Payments preloaded into every mempool before round 1.
    pub tx_count: usize,
    pub target_round: u64,
}

/// Entry point of `benchmark node <conf>`: one node process, exactly
/// what `crates/node/src/main.rs` does minus its stdout report (the
/// parent's stdout is the benchmark's result channel).
pub fn node_main(conf: &Path) -> ExitCode {
    let cfg = match NodeConfig::load(conf) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("benchmark node: {}: {e}", conf.display());
            return ExitCode::from(2);
        }
    };
    let mut runtime = match Runtime::new(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark node: startup failed: {e}");
            return ExitCode::from(1);
        }
    };
    algorand_node::crash::arm(runtime.crash_context());
    let outcome = runtime.run();
    algorand_node::crash::disarm();
    match outcome {
        Ok(summary) if summary.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark node: {e}");
            ExitCode::from(1)
        }
    }
}

/// Everything one deployment produced.
pub struct LocalnetObs {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Mean wall seconds per finished round, from the nodes' own
    /// `round.latency_us` histograms.
    pub round_s: f64,
    pub tx_per_s: f64,
    /// Seconds from the start instant to the durable WAL append of the
    /// committing block at the sender's process, one per payment.
    pub finalize_s: Vec<f64>,
    pub counts: Counts,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Mean VmHWM over the node processes.
    pub mean_rss_mb: f64,
    /// Lines in the nodes' exported traces (traced runs only).
    pub trace_events: u64,
    pub trace_dropped: u64,
}

/// The simulator's chain for the same seed, population and preloaded
/// payments: the oracle a deployment's digest is held to, and — once the
/// digests match — the map from payment to committing round.
pub struct Reference {
    /// The seed the deployment runs: see [`reference`].
    pub seed: u64,
    pub digest: String,
    /// Commit round by payment id.
    pub commit_round: HashMap<[u8; 32], u64>,
    pub duplicates: u64,
    pub payment_blocks: u64,
}

/// Distance between the candidate seeds of one `--seed`; large, so the
/// candidates of neighbouring seeds do not meet.
const SEED_STRIDE: u64 = 1_000_003;

/// Candidates tried before giving up. A round lacks a proposer with
/// probability 0.37⁵ ≈ 0.7% at five users, so a ten-round candidate is
/// refused about one time in fifteen.
const SEED_CANDIDATES: u64 = 16;

/// The reference for the first of `seed`, `seed + SEED_STRIDE`, … on
/// which the simulator finishes every target round on a proposed block
/// with final consensus.
///
/// With τ_proposer = 5 over five users some rounds draw no proposer at
/// all. The simulator then agrees on the empty block after the λ_block
/// timeout; a real deployment does not follow it there (seed 17 at ten
/// rounds, run twice: once all five processes agreed with each other on
/// a chain that is not the simulator's, 50 s for the ten rounds; once a
/// node ran out its deadline). That is a finding about the product,
/// recorded in the README; a benchmark needs inputs on which no
/// operation fails, so it steps over them.
///
/// # Panics
///
/// Panics if no candidate qualifies, which sixteen independent draws at
/// one in fifteen do not do.
pub fn reference(spec: &LocalnetSpec, seed: u64) -> Reference {
    (0..SEED_CANDIDATES)
        .map(|k| seed.wrapping_add(k * SEED_STRIDE))
        .find_map(|candidate| {
            let found = simulate(spec, candidate);
            if found.is_none() {
                eprintln!(
                    "localnet: seed {candidate} has a round without a proposed, final block in \
                     simulation; trying {}",
                    candidate.wrapping_add(SEED_STRIDE)
                );
            }
            found
        })
        .expect("one of sixteen candidate seeds has a proposer in every round")
}

/// Runs the simulator on the deployment's input. `None` if some node
/// finished some target round on the empty block or without final
/// consensus, or fell short of the target.
fn simulate(spec: &LocalnetSpec, seed: u64) -> Option<Reference> {
    let node_cfg = NodeConfig {
        n_users: spec.nodes,
        stake_per_user: spec.stake_per_user,
        seed,
        ..NodeConfig::default()
    };
    let mut cfg = SimConfig::new(spec.nodes);
    cfg.seed = seed;
    cfg.stake_per_user = spec.stake_per_user;
    cfg.params = node_cfg.params();
    let mut sim = Simulation::new(cfg);
    let keypairs = derive_keypairs(seed, spec.nodes);
    sim.preload_transactions(&workload_transactions(
        seed,
        &keypairs,
        spec.stake_per_user,
        spec.tx_count,
    ));
    sim.run_rounds(spec.target_round, 600_000_000);
    let smooth = sim
        .combined_records()
        .iter()
        .flatten()
        .filter(|r| r.round <= spec.target_round)
        .all(|r| !r.empty && r.kind == ConsensusKind::Final);
    let chain = sim.honest_node(0).chain();
    let digest = hex(&chain.digest_through(spec.target_round).filter(|_| smooth)?);
    let mut commit_round = HashMap::new();
    let mut duplicates = 0;
    let mut payment_blocks = 0;
    for r in 1..=spec.target_round {
        let Some(block) = chain.block_at(r) else {
            continue;
        };
        payment_blocks += u64::from(!block.txs.is_empty());
        for tx in &block.txs {
            if commit_round.insert(tx.id(), r).is_some() {
                duplicates += 1;
            }
        }
    }
    Some(Reference {
        seed,
        digest,
        commit_round,
        duplicates,
        payment_blocks,
    })
}

/// One running node and what has been seen of it from outside.
struct Watched {
    child: Child,
    pid: String,
    dir: PathBuf,
    wal: WalTail,
    peak_rss_mb: f64,
    digest_seen: Option<Instant>,
    exited_ok: Option<bool>,
}

/// No node outlives the value watching it, whichever way a run ends: one
/// that has already been waited for is unaffected.
impl Drop for Watched {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs one deployment to its target round.
pub fn run_once(
    spec: &LocalnetSpec,
    traced: bool,
    root: &Path,
    reference: &Reference,
) -> LocalnetObs {
    let seed = reference.seed;
    let mut problems = Vec::new();
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).expect("create the deployment directory");

    let children_cpu0 = procfs::self_cpu().children_s;
    let start_at_ms = unix_ms() + START_MARGIN_MS;
    let cfgs = configs(spec, seed, traced, root, start_at_ms);
    let (mut watched, setup_s) = launch(root, &cfgs);
    if unix_ms() >= start_at_ms {
        problems.push(format!(
            "set-up took {setup_s:.2} s, past the {START_MARGIN_MS} ms start margin"
        ));
    }

    // Run: from the shared start instant until the last digest file.
    let started = Instant::now() + Duration::from_millis(start_at_ms.saturating_sub(unix_ms()));
    let give_up = Instant::now() + RUN_TIMEOUT;
    let mut tick = 0u32;
    while watched.iter().any(|w| w.exited_ok.is_none()) {
        let now = Instant::now();
        for w in &mut watched {
            w.wal.poll(now);
            if w.digest_seen.is_none() && w.dir.join("digest").exists() {
                w.digest_seen = Some(now);
            }
            if tick.is_multiple_of(RSS_EVERY) {
                if let Some(mb) = procfs::peak_rss_mb(&w.pid) {
                    w.peak_rss_mb = w.peak_rss_mb.max(mb);
                }
            }
            if w.exited_ok.is_none() {
                match w.child.try_wait() {
                    Ok(Some(status)) => w.exited_ok = Some(status.success()),
                    Ok(None) if now >= give_up => {
                        let _ = w.child.kill();
                        let _ = w.child.wait();
                        w.exited_ok = Some(false);
                    }
                    Ok(None) => {}
                    Err(_) => w.exited_ok = Some(false),
                }
            }
        }
        tick = tick.wrapping_add(1);
        std::thread::sleep(POLL);
    }
    let cpu_s = procfs::self_cpu().children_s - children_cpu0;

    // Oracle: every process succeeded and all share the simulator's chain.
    for (i, w) in watched.iter().enumerate() {
        if w.exited_ok != Some(true) {
            problems.push(format!("node {i} failed or timed out"));
        }
        let d = std::fs::read_to_string(w.dir.join("digest")).unwrap_or_default();
        let d = d.trim();
        if d != reference.digest {
            problems.push(format!(
                "node {i} digest {d:?} differs from the simulator's {:?}",
                reference.digest
            ));
        }
    }
    let chains_agree = problems.is_empty();
    let wall_s = watched
        .iter()
        .filter_map(|w| w.digest_seen)
        .max()
        .map_or(0.0, |t| t.saturating_duration_since(started).as_secs_f64());

    // What the nodes published about themselves.
    let mut counts = Counts {
        nodes: spec.nodes as f64,
        rounds: spec.target_round as f64,
        payment_blocks: reference.payment_blocks as f64,
        // Every node admits the whole preload at start-up; the runtime
        // registers no pool counters, so this one is by construction.
        pool_admitted: (spec.tx_count * spec.nodes) as f64,
        ..Counts::default()
    };
    let (mut lat_sum, mut lat_count) = (0.0, 0.0);
    let mut min_committed = f64::INFINITY;
    let (mut trace_events, mut trace_dropped) = (0u64, 0u64);
    let mut gossip_frames_received = 0.0;
    for (i, w) in watched.iter().enumerate() {
        let text = std::fs::read_to_string(w.dir.join("metrics.txt")).unwrap_or_default();
        let m = match Exposition::parse(&text) {
            Ok(m) if !text.is_empty() => m,
            _ => {
                problems.push(format!("node {i} left no readable metrics.txt"));
                continue;
            }
        };
        lat_sum += m.get("round.latency_us_sum");
        lat_count += m.get("round.latency_us_count");
        counts.node_rounds += m.get("round.latency_us_count");
        counts.ingested += m.get("pipeline.ingested");
        counts.verified += m.get("pipeline.verified");
        counts.emitted += m.get("pipeline.emitted");
        counts.cache_hits += m.get("verify.cache_hits");
        counts.cache_misses += m.get("verify.cache_misses");
        counts.cold_votes += m.get("verify.unique_votes");
        counts.bytes_sent += m.get("transport.bytes_sent");
        counts.frames_sent += m.get("transport.frames_sent");
        counts.frames_received += m.get("transport.frames_received");
        gossip_frames_received += m.labeled("transport.frames_received", "kind", "gossip");
        counts.wal_entries += m.get("wal.entries");
        counts.send_drops += m.get("transport.send_drops");
        counts.decode_failures += m.get("node.decode_failures");
        min_committed = min_committed.min(m.get("workload.committed"));
        trace_dropped += m.get("trace.dropped") as u64;
        if traced {
            let trace = std::fs::read_to_string(w.dir.join("trace.jsonl")).unwrap_or_default();
            trace_events += (trace.lines().count() as u64).saturating_sub(1);
        }
    }
    counts.cold_proposals = (counts.cache_misses - counts.cold_votes).max(0.0);
    // A node hands every first-seen gossip message to its ingest stage
    // and drops the rest at the relay filter; the transport counts both.
    counts.relay_new = counts.ingested;
    counts.relay_dup = (gossip_frames_received - counts.ingested).max(0.0);
    counts.final_step_mean = 0.0;

    // Payments: in the agreed chain exactly once, on every node.
    let committed = if chains_agree {
        reference.commit_round.len() as u64
    } else {
        0
    };
    counts.committed = committed as f64;
    let uncommitted = (spec.tx_count as u64).saturating_sub(committed);
    if chains_agree && min_committed < spec.tx_count as f64 {
        problems.push(format!(
            "a node reports only {min_committed} of {} payments committed",
            spec.tx_count
        ));
    }
    if uncommitted > 0 {
        problems.push(format!("{uncommitted} payments not committed by run end"));
    }
    if reference.duplicates > 0 {
        problems.push(format!("{} payments committed twice", reference.duplicates));
    }
    let short_rounds: u64 = watched
        .iter()
        .map(|w| {
            spec.target_round
                .saturating_sub(w.wal.rounds.keys().copied().max().unwrap_or(0))
        })
        .max()
        .unwrap_or(0);
    if short_rounds > 0 {
        problems.push(format!(
            "a WAL ends {short_rounds} rounds short of the target"
        ));
    }

    // Per-payment latency. Every payment sits in every mempool when
    // consensus starts, so each is due at the start instant; it is final
    // for its sender when the sender's process has the committing block
    // durably in its WAL.
    let mut finalize_s = Vec::new();
    if chains_agree {
        let keypairs = derive_keypairs(seed, spec.nodes);
        let sender_of: HashMap<[u8; 32], usize> = keypairs
            .iter()
            .enumerate()
            .map(|(i, k)| (k.pk.to_bytes(), i))
            .collect();
        for tx in workload_transactions(seed, &keypairs, spec.stake_per_user, spec.tx_count) {
            let durable = reference
                .commit_round
                .get(&tx.id())
                .zip(sender_of.get(&tx.from.to_bytes()))
                .and_then(|(round, &sender)| watched[sender].wal.rounds.get(round));
            if let Some(at) = durable {
                finalize_s.push(at.saturating_duration_since(started).as_secs_f64());
            }
        }
    }

    let obs = LocalnetObs {
        setup_s,
        wall_s,
        cpu_s,
        peak_rss_mb: watched.iter().map(|w| w.peak_rss_mb).fold(0.0, f64::max),
        round_s: if lat_count > 0.0 {
            lat_sum / lat_count / 1e6
        } else {
            0.0
        },
        tx_per_s: if wall_s > 0.0 {
            committed as f64 / wall_s
        } else {
            0.0
        },
        finalize_s,
        counts,
        attempted: spec.tx_count as u64 + spec.target_round,
        failed: uncommitted + reference.duplicates + short_rounds,
        problems,
        mean_rss_mb: watched.iter().map(|w| w.peak_rss_mb).sum::<f64>() / spec.nodes as f64,
        trace_events,
        trace_dropped,
    };
    let _ = std::fs::remove_dir_all(root);
    obs
}

/// One config per node of a deployment that starts consensus at
/// `start_at_ms`.
fn configs(
    spec: &LocalnetSpec,
    seed: u64,
    traced: bool,
    root: &Path,
    start_at_ms: u64,
) -> Vec<NodeConfig> {
    (0..spec.nodes)
        .map(|i| NodeConfig {
            index: i,
            n_users: spec.nodes,
            stake_per_user: spec.stake_per_user,
            seed,
            listen: "127.0.0.1:0".into(),
            wal_dir: root.join(format!("n{i}")),
            target_round: spec.target_round,
            deadline_secs: RUN_TIMEOUT.as_secs() - 10,
            linger_secs: LINGER_SECS,
            tx_count: spec.tx_count,
            min_peers: spec.nodes - 1,
            start_at_ms,
            trace: traced,
            ..NodeConfig::default()
        })
        .collect()
}

/// Set-up: first spawn until every node has published its address, which
/// it does after opening its WAL, verifying and pooling the preloaded
/// payments, and binding its listener. Nodes go one after another, each
/// told the resolved addresses of all before it, so the mesh is whole as
/// soon as the last one has dialled — well inside the start margin, with
/// no wait for a peer-exchange round. Returns the running nodes and the
/// seconds it took.
fn launch(root: &Path, cfgs: &[NodeConfig]) -> (Vec<Watched>, f64) {
    let t_setup = Instant::now();
    let mut watched = Vec::with_capacity(cfgs.len());
    let mut addrs = Vec::with_capacity(cfgs.len());
    for cfg in cfgs {
        let mut cfg = cfg.clone();
        cfg.peers.clone_from(&addrs);
        watched.push(spawn(root, &cfg));
        // A node that never publishes fails the run on its own.
        addrs.extend(wait_for_addr(&cfg.wal_dir));
    }
    (watched, t_setup.elapsed().as_secs_f64())
}

/// One more sample of set-up time: the same deployment brought up until
/// every address is published, then killed before consensus starts.
pub fn time_setup(spec: &LocalnetSpec, seed: u64, root: &Path) -> f64 {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).expect("create the deployment directory");
    let never = unix_ms() + 1_000 * RUN_TIMEOUT.as_secs();
    let (watched, setup_s) = launch(root, &configs(spec, seed, false, root, never));
    drop(watched);
    let _ = std::fs::remove_dir_all(root);
    setup_s
}

fn spawn(root: &Path, cfg: &NodeConfig) -> Watched {
    let conf = root.join(format!("n{}.conf", cfg.index));
    std::fs::write(&conf, cfg.render()).expect("write node config");
    std::fs::create_dir_all(&cfg.wal_dir).expect("create node directory");
    let log = File::create(cfg.wal_dir.join("stderr.log")).expect("create node log");
    let child = Command::new(std::env::current_exe().expect("current_exe"))
        .arg("node")
        .arg(&conf)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .expect("spawn a node process");
    Watched {
        pid: child.id().to_string(),
        child,
        dir: cfg.wal_dir.clone(),
        wal: WalTail::new(cfg.wal_dir.join("node.wal")),
        peak_rss_mb: 0.0,
        digest_seen: None,
        exited_ok: None,
    }
}

/// Blocks until a node has published its resolved listen address.
/// `None` if it never does; the run then fails on its own.
fn wait_for_addr(dir: &Path) -> Option<String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = std::fs::read_to_string(dir.join("addr")) {
            return Some(addr.trim().to_string());
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Follows a node's WAL from outside, noting when each round's record
/// became visible. The framing is the documented one of `node::wal`:
/// `[u32 len][u32 crc][payload]`, little-endian, payload byte 0 the
/// record kind (1 = round entry, followed by the `u64` round).
struct WalTail {
    path: PathBuf,
    offset: u64,
    /// When each round's entry was first seen complete.
    rounds: HashMap<u64, Instant>,
}

const WAL_KIND_ENTRY: u8 = 1;

impl WalTail {
    fn new(path: PathBuf) -> WalTail {
        WalTail {
            path,
            offset: 0,
            rounds: HashMap::new(),
        }
    }

    fn poll(&mut self, now: Instant) {
        let Ok(len) = std::fs::metadata(&self.path).map(|m| m.len()) else {
            return;
        };
        if len < self.offset + 8 {
            return;
        }
        let Ok(mut f) = File::open(&self.path) else {
            return;
        };
        // A record counts once its whole payload is in the file: the
        // node writes it with one `write_all` and then syncs.
        while len >= self.offset + 8 {
            let mut head = [0u8; 17];
            let want = (len - self.offset).min(17) as usize;
            if f.seek(SeekFrom::Start(self.offset)).is_err()
                || f.read_exact(&mut head[..want]).is_err()
            {
                return;
            }
            let payload = u64::from(u32::from_le_bytes(head[..4].try_into().expect("4 bytes")));
            if len < self.offset + 8 + payload {
                return;
            }
            if want == 17 && payload >= 9 && head[8] == WAL_KIND_ENTRY {
                let round = u64::from_le_bytes(head[9..17].try_into().expect("8 bytes"));
                self.rounds.entry(round).or_insert(now);
            }
            self.offset += 8 + payload;
        }
    }
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_millis() as u64
}

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_ba::{Certificate, StepKind};
    use algorand_ledger::Block;
    use algorand_node::Wal;

    #[test]
    fn wal_tail_sees_each_round_once_and_skips_checkpoints() {
        let dir = crate::out_dir().join(format!("waltail-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        let mut tail = WalTail::new(path.clone());
        tail.poll(Instant::now());
        assert!(tail.rounds.is_empty());

        let block = Block::empty(1, [0u8; 32], &[0u8; 32]);
        let cert = Certificate {
            round: 1,
            step: StepKind::Final,
            value: block.hash(),
            votes: Vec::new(),
        };
        wal.append_entry(1, &block, &cert).unwrap();
        wal.append_checkpoint(&[1, 2, 3]).unwrap();
        wal.append_entry(2, &block, &cert).unwrap();
        let t1 = Instant::now();
        tail.poll(t1);
        assert_eq!(tail.rounds.len(), 2);
        wal.append_entry(3, &block, &cert).unwrap();
        let t2 = t1 + Duration::from_millis(5);
        tail.poll(t2);
        assert_eq!(tail.rounds[&1], t1);
        assert_eq!(tail.rounds[&2], t1);
        assert_eq!(tail.rounds[&3], t2);
        assert_eq!(tail.offset, wal.len_bytes().unwrap());

        // A torn tail (length prefix without its payload) is not a round.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&[200, 0, 0, 0, 0, 0, 0, 0, 1, 4]).unwrap();
        tail.poll(t2);
        assert_eq!(tail.rounds.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
