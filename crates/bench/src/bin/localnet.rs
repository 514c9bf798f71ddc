//! Localhost deployment gate: real processes must match the simulator.
//!
//! Launches N `algorand-node` processes over loopback TCP and checks the
//! two properties the node subsystem exists to provide:
//!
//! 1. **Simulator equivalence** — with the same seed, keys, and
//!    preloaded workload, all N processes finalize the *exact* chain
//!    digest the discrete-event simulator produces. The sans-io core is
//!    the same code in both worlds; this proves the transport, WAL and
//!    clock plumbing around it preserve its behavior.
//! 2. **Crash recovery** — a process `kill -9`'d mid-deployment and
//!    restarted rejoins: it replays its WAL from disk, fetches what it
//!    missed via blocksync catch-up batches, and finalizes the same
//!    chain as the survivors.
//! 3. **Live telemetry** — mid-run, every process has rewritten the
//!    `metrics.txt` in its node directory at its last STATUS tick: the
//!    merged cluster health report read from those files (printed to
//!    stdout) must show five clean in-process
//!    monitor verdicts and non-zero transport/WAL/pipeline counters,
//!    and no process may have run more full public-key checks, or built
//!    more key combs, than the deployment has distinct keys. The mesh
//!    has no duplicate connection: every process reads
//!    `transport.peers` = N − 1, and no sample carries a `peer` label.
//!    And the asymmetry that makes `crash.jsonl` trustworthy: `kill -9`
//!    leaves no dump (only a panic writes one).
//! 4. **Cluster trace plane** — once phase A's processes have exited,
//!    the harness merges the `trace.jsonl` each wrote at exit onto one
//!    clock (`node::telemetry::collect_trace`, what `trace collect`
//!    runs). The merge must clear the cluster gate (`Merged::problems`
//!    under `Gate::CLUSTER`, what `trace check FILE` runs): no dropped
//!    event, every clock aligned on ≥ 3 finalized-round anchors, ≥ 3
//!    rounds profiled, and contiguous chains covering ≥ 90% of every
//!    finalized round, one of them crossing processes. The merged trace
//!    and its report land in the gate's scratch directory,
//!    `cluster_trace.{jsonl,txt}`, and the written file is read back and
//!    held to the same gate, exactly as `trace check FILE` does. The
//!    scratch directory is removed on success and kept on failure; the
//!    checkout is left untouched.
//! 5. **The WAL keeps one fact** — after phase B, a copy of every
//!    node's WAL reopens to entry records only, for rounds 1, 2, … in
//!    order, each once, as many as the node wrote across its lives
//!    (`wal.replayed_rounds` + `wal.entries`), and no record is larger
//!    than the biggest entry: nothing re-encodes the chain, so WAL bytes
//!    per round are constant.
//!
//! Exit code 0 only if every assertion holds, so `scripts/ci.sh` can
//! gate on it. Configuration is compiled in (it *is* the test).

use algorand_bench::path_problems;
use algorand_node::config::{derive_keypairs, workload_transactions};
use algorand_node::runtime::hex;
use algorand_node::telemetry::{collect_trace, ClusterHealth, NodeHealth};
use algorand_node::{wal, NodeConfig, Wal};
use algorand_obs::{critical_paths, expose, Gate};
use algorand_sim::{SimConfig, Simulation};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

const N: usize = 5;
const SEED: u64 = 7;
const TX_COUNT: usize = 24;
/// Phase A target: all five processes, digest checked against the sim.
/// (Chains run a little past the target during the linger grace, so
/// phase B's goals are set relative to where phase A actually ended.)
const TARGET_A: u64 = 3;
const STAKE: u64 = 10;

fn main() {
    let t0 = Instant::now();
    let root = std::env::temp_dir().join(format!("algorand-localnet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create scratch dir");

    // --- Reference run: the simulator, same seed/keys/workload. -------
    let cfgs = node_configs(&root);
    let reference = simulator_digest(&cfgs[0]);
    println!("[localnet] simulator digest through round {TARGET_A}: {reference}");

    // --- Phase A: five real processes must reproduce it. --------------
    println!("[localnet] phase A: {N} processes -> round {TARGET_A}");
    let mut cfgs = cfgs;
    for cfg in &mut cfgs {
        cfg.target_round = TARGET_A;
        cfg.start_at_ms = unix_ms() + 8_000;
    }
    let children = spawn_all(&root, &mut cfgs);

    // --- Mid-run telemetry: read all N while they are consensing. ----
    // Wait until every node has persisted a round, so the core counters
    // the health report asserts on are necessarily non-zero.
    wait_walled(&cfgs, 1);
    let health = ClusterHealth::collect(&root).expect("every node publishes its address");
    let report = health.render();
    println!("{report}");
    let distinct_keys = distinct_keys();
    assert!(
        health.unreadable.is_empty(),
        "every process must keep a readable metrics.txt: {:?}",
        health.unreadable
    );
    assert_eq!(health.nodes.len(), N);
    for n in &health.nodes {
        assert_eq!(
            n.verdict(),
            "clean",
            "{}: in-process monitor flagged violations mid-run",
            n.addr
        );
        assert!(n.pipeline_ingested > 0, "{}: pipeline idle", n.addr);
        assert!(n.frames_sent > 0, "{}: transport idle", n.addr);
        assert!(n.wal_entries > 0, "{}: WAL idle", n.addr);
        // A key is proven once per process, however many votes, proposals
        // and payments carry it; every later parse is a table hit. Its
        // comb is built once too, by its first verification, and every
        // later verification reads the comb.
        let (checks, hits) = (sample(n, "node.key_checks"), sample(n, "node.key_hits"));
        assert!(
            checks <= distinct_keys,
            "{}: {checks} full key checks for {distinct_keys} distinct keys",
            n.addr
        );
        assert!(hits > 0, "{}: no key parse was a table hit", n.addr);
        let combs = sample(n, "node.key_combs_built");
        assert!(
            combs <= distinct_keys,
            "{}: {combs} key combs built for {distinct_keys} distinct keys",
            n.addr
        );
        assert!(
            sample(n, "node.key_comb_hits") > 0,
            "{}: no verification read a key comb",
            n.addr
        );
        // One connection per pair of nodes, and no series keyed by a
        // peer.
        assert_eq!(
            sample(n, "transport.peers"),
            N as i64 - 1,
            "{}: a duplicate or missing connection",
            n.addr
        );
        assert!(
            n.samples
                .iter()
                .all(|s| s.labels.iter().all(|(key, _)| key != "peer")),
            "{}: a per-peer series",
            n.addr
        );
    }
    assert!(
        health.digests_agree(),
        "nodes at the same tip must agree on the tip hash"
    );
    println!("[localnet] telemetry ok: {N} clean metrics.txt files mid-run");

    let summaries = wait_all(children, Duration::from_secs(180));
    for (i, ok) in summaries.iter().enumerate() {
        assert!(*ok, "phase A: node {i} exited unsuccessfully");
    }
    for (i, cfg) in cfgs.iter().enumerate() {
        let digest = read_trimmed(&cfg.wal_dir.join("digest"));
        assert_eq!(
            digest, reference,
            "phase A: node {i} digest disagrees with simulator"
        );
    }
    println!("[localnet] phase A ok: all {N} digests match the simulator");

    // --- Cluster trace plane: merge the traces phase A wrote at exit. --
    let trace_file = root.join("cluster_trace.jsonl");
    let merged = collect_trace(&root, &trace_file, &root.join("cluster_trace.txt"))
        .unwrap_or_else(|e| panic!("collect the cluster trace: {e}"));
    assert_eq!(merged.nodes.len(), N, "every node's trace is merged");
    for n in &merged.nodes {
        println!(
            "[localnet] node {} clock: offset {:+}us, skew bound {}us over {} anchors",
            n.node, n.offset, n.skew, n.anchors
        );
    }
    let written = std::fs::read_to_string(&trace_file).expect("read the merged trace back");
    let problems = path_problems(&written, &written, &Gate::CLUSTER);
    assert!(problems.is_empty(), "written cluster trace: {problems:?}");
    println!(
        "[localnet] cluster trace ok: {} rounds profiled across {N} processes",
        critical_paths(&merged.events).len()
    );

    // --- Phase B: continue from the WALs; kill -9 one node mid-run. ---
    // Thresholds are relative to the longest phase-A WAL (linger
    // overshoot included), read from the exposition each wrote at exit.
    let phase_a_tip = cfgs
        .iter()
        .map(|c| exported(&c.wal_dir, "node.walled_round").unwrap_or(TARGET_A))
        .max()
        .unwrap();
    let target_b = phase_a_tip + 5;
    let kill_after = phase_a_tip + 2;
    println!(
        "[localnet] phase B: continue -> round {target_b}, kill -9 node {}",
        N - 1
    );
    for cfg in &mut cfgs {
        cfg.target_round = target_b;
        cfg.linger_secs = 25;
        cfg.start_at_ms = unix_ms() + 8_000;
    }
    let mut children: Vec<Option<Child>> =
        spawn_all(&root, &mut cfgs).into_iter().map(Some).collect();

    let victim = N - 1;
    let victim_dir = cfgs[victim].wal_dir.clone();
    // Let the victim make fresh progress past its phase-A WAL first, so
    // the restart demonstrably replays *this* deployment's history too.
    wait_until(
        || exported(&victim_dir, "node.walled_round").is_some_and(|w| w >= kill_after),
        Duration::from_secs(120),
        "victim to persist fresh phase-B rounds",
    );
    let mut child = children[victim].take().expect("victim running");
    child.kill().expect("kill -9 victim"); // SIGKILL on unix.
    let _ = child.wait();
    // SIGKILL gives the process no chance to run its panic hook, so no
    // crash dump may exist — the dump's presence must mean "panicked".
    assert!(
        !victim_dir.join("crash.jsonl").exists(),
        "kill -9 must not produce a crash.jsonl (only a panic does)"
    );
    // Stay dead for several rounds: a short outage rejoins through
    // ordinary vote gossip, and only a real gap forces blocksync.
    println!("[localnet] killed node {victim}; restarting in 20s");
    std::thread::sleep(Duration::from_secs(20));
    children[victim] = Some(spawn_node(&root, victim));

    let summaries = wait_all(
        children.into_iter().flatten().collect(),
        Duration::from_secs(240),
    );
    for (i, ok) in summaries.iter().enumerate() {
        assert!(*ok, "phase B: node {i} exited unsuccessfully");
    }
    let digests: Vec<String> = cfgs
        .iter()
        .map(|c| read_trimmed(&c.wal_dir.join("digest")))
        .collect();
    for (i, d) in digests.iter().enumerate() {
        assert_eq!(
            *d, digests[0],
            "phase B: node {i} digest disagrees with node 0"
        );
    }
    let replayed = exported(&victim_dir, "wal.replayed_rounds").unwrap_or(0);
    let catchups = exported(&victim_dir, "recovery.catchups_applied").unwrap_or(0);
    assert!(
        replayed >= kill_after,
        "victim should have replayed its WAL through round {kill_after}, got {replayed}"
    );
    assert!(
        catchups > 0,
        "victim should have applied blocksync catch-up entries"
    );
    println!(
        "[localnet] phase B ok: victim replayed {replayed} rounds from its WAL, \
         applied {catchups} catch-up entries, all digests agree"
    );
    for (i, cfg) in cfgs.iter().enumerate() {
        let (rounds, bytes, biggest) = reopen_wal(&cfg.wal_dir);
        println!(
            "[localnet] node {i} WAL: {rounds} entry records, {bytes} bytes \
             ({} per round, biggest record {biggest})",
            bytes / rounds
        );
    }

    let _ = std::fs::remove_dir_all(&root);
    println!("[localnet] PASS in {:.1}s", t0.elapsed().as_secs_f64());
}

/// Reopens a copy of a node's WAL after its last exit and asserts it
/// keeps one fact: only entry records, for rounds 1, 2, … in order, as
/// many as the node wrote (`wal.replayed_rounds` at its last start plus
/// that life's `wal.entries`), reopening whole. With entries only, no
/// record is larger than the biggest entry. Returns the rounds, the
/// log's bytes and its biggest record's payload bytes.
fn reopen_wal(wal_dir: &Path) -> (u64, u64, usize) {
    let copy = wal_dir.join("node.wal.copy");
    std::fs::copy(wal_dir.join("node.wal"), &copy).expect("copy the WAL");
    let bytes = std::fs::read(&copy).expect("read the WAL copy");
    let (mut rounds, mut biggest) = (0u64, 0);
    for (kind, payload) in wal::records(&bytes) {
        assert_eq!(
            kind,
            wal::KIND_ENTRY,
            "{}: a record other than an entry",
            wal_dir.display()
        );
        let round = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
        assert_eq!(
            round,
            rounds + 1,
            "{}: entries out of order",
            wal_dir.display()
        );
        rounds += 1;
        biggest = biggest.max(payload.len());
    }
    let (_, replay) = Wal::open(&copy).expect("reopen the WAL copy");
    assert_eq!(replay.truncated_bytes, 0, "{}: torn WAL", wal_dir.display());
    assert_eq!(
        (replay.entries as u64, replay.tip),
        (rounds, rounds),
        "{}: records other than consecutive entries",
        wal_dir.display()
    );
    let written = exported(wal_dir, "wal.replayed_rounds").unwrap_or(0)
        + exported(wal_dir, "wal.entries").unwrap_or(0);
    assert_eq!(
        rounds,
        written,
        "{}: the WAL holds a round other than the node wrote",
        wal_dir.display()
    );
    (rounds, bytes.len() as u64, biggest)
}

/// Runs the simulator with the deployment's exact parameters, keys and
/// workload, and returns its hex chain digest through [`TARGET_A`].
fn simulator_digest(cfg: &NodeConfig) -> String {
    let mut sim_cfg = SimConfig::new(N);
    sim_cfg.seed = SEED;
    sim_cfg.stake_per_user = STAKE;
    sim_cfg.params = cfg.params();
    let mut sim = Simulation::new(sim_cfg);
    let keypairs = derive_keypairs(SEED, N);
    sim.preload_transactions(&workload_transactions(SEED, &keypairs, STAKE, TX_COUNT));
    sim.run_rounds(TARGET_A, 600_000_000);
    let digest = sim
        .honest_node(0)
        .chain()
        .digest_through(TARGET_A)
        .expect("simulator reached the target round");
    hex(&digest)
}

/// How many different public keys the deployment's traffic can carry:
/// the users' and the preloaded payments' recipients'.
fn distinct_keys() -> i64 {
    let keypairs = derive_keypairs(SEED, N);
    let txs = workload_transactions(SEED, &keypairs, STAKE, TX_COUNT);
    let keys: BTreeSet<[u8; 32]> = keypairs
        .iter()
        .map(|kp| kp.pk.to_bytes())
        .chain(
            txs.iter()
                .flat_map(|tx| [tx.from.to_bytes(), tx.to.to_bytes()]),
        )
        .collect();
    keys.len() as i64
}

/// An unlabelled sample of a node's exposition; its absence fails the
/// gate.
fn sample(node: &NodeHealth, name: &str) -> i64 {
    expose::unlabelled(&node.samples, name)
        .unwrap_or_else(|| panic!("{}: no sample {name}", node.addr)) as i64
}

/// One config per node. Every node binds an ephemeral port
/// (`127.0.0.1:0`); its peers, the nodes started before it, are filled
/// in at spawn time from each process's published `addr` file, so
/// concurrent harness runs can never collide on a fixed port range.
/// `min_peers` holds consensus until the mesh is whole.
fn node_configs(root: &Path) -> Vec<NodeConfig> {
    (0..N)
        .map(|i| NodeConfig {
            index: i,
            n_users: N,
            stake_per_user: STAKE,
            seed: SEED,
            listen: "127.0.0.1:0".into(),
            peers: Vec::new(), // Filled with the earlier nodes' addresses at spawn.
            wal_dir: root.join(format!("n{i}")),
            deadline_secs: 150,
            linger_secs: 6,
            tx_count: TX_COUNT,
            min_peers: N - 1,
            // Tracing feeds the in-process monitor and the exit traces
            // the telemetry and trace-merge assertions below exercise.
            trace: true,
            ..NodeConfig::default()
        })
        .collect()
}

/// Spawns the deployment as the benchmark does: one node after another,
/// each configured with the resolved addresses of the nodes before it,
/// read from their `addr` files, so the mesh is whole once the last one
/// has dialled. The start-time barrier in the configs keeps consensus
/// clocks aligned despite the stagger.
fn spawn_all(root: &Path, cfgs: &mut [NodeConfig]) -> Vec<Child> {
    // Stale addr and metrics files from an earlier phase must not be
    // read back: the port may now belong to another node, and the
    // metrics describe the life that ended.
    for cfg in cfgs.iter() {
        let _ = std::fs::remove_file(cfg.wal_dir.join("addr"));
        let _ = std::fs::remove_file(cfg.wal_dir.join("metrics.txt"));
    }
    let mut children = Vec::with_capacity(cfgs.len());
    let mut addrs = Vec::with_capacity(cfgs.len());
    for (i, cfg) in cfgs.iter_mut().enumerate() {
        cfg.peers.clone_from(&addrs);
        std::fs::write(root.join(format!("n{i}.conf")), cfg.render()).expect("write config");
        children.push(spawn_node(root, i));
        let addr_file = cfg.wal_dir.join("addr");
        wait_until(
            || addr_file.exists(),
            Duration::from_secs(30),
            &format!("node {i} to publish its resolved address"),
        );
        addrs.push(read_trimmed(&addr_file));
    }
    children
}

fn spawn_node(root: &Path, i: usize) -> Child {
    Command::new(node_binary())
        .arg(root.join(format!("n{i}.conf")))
        .spawn()
        .expect("spawn algorand-node")
}

/// The `algorand-node` binary: `$ALGORAND_NODE_BIN` if set, else the
/// sibling of this harness in the same cargo target directory.
fn node_binary() -> PathBuf {
    if let Ok(p) = std::env::var("ALGORAND_NODE_BIN") {
        return PathBuf::from(p);
    }
    let mut p = std::env::current_exe().expect("current_exe");
    p.set_file_name("algorand-node");
    p
}

/// Waits for every child; true per child = exited with status 0.
fn wait_all(children: Vec<Child>, timeout: Duration) -> Vec<bool> {
    let deadline = Instant::now() + timeout;
    let mut children: Vec<Option<Child>> = children.into_iter().map(Some).collect();
    let mut ok = vec![false; children.len()];
    while children.iter().any(Option::is_some) {
        for (i, slot) in children.iter_mut().enumerate() {
            let Some(child) = slot else { continue };
            match child.try_wait().expect("try_wait") {
                Some(status) => {
                    ok[i] = status.success();
                    *slot = None;
                }
                None if Instant::now() >= deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    *slot = None;
                }
                None => {}
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    ok
}

/// Waits until every node has persisted `round` rounds to its WAL.
fn wait_walled(cfgs: &[NodeConfig], round: u64) {
    for cfg in cfgs {
        wait_until(
            || exported(&cfg.wal_dir, "node.walled_round").is_some_and(|w| w >= round),
            Duration::from_secs(120),
            &format!("every node to persist round {round}"),
        );
    }
}

fn wait_until(mut cond: impl FnMut() -> bool, timeout: Duration, what: &str) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// One unlabelled sample of the `metrics.txt` a node rewrites at every
/// STATUS tick and at exit; `None` until it has written one.
fn exported(wal_dir: &Path, name: &str) -> Option<u64> {
    value(
        &std::fs::read_to_string(wal_dir.join("metrics.txt")).ok()?,
        name,
    )
}

fn value(exposition: &str, name: &str) -> Option<u64> {
    expose::unlabelled(&expose::parse(exposition).ok()?, name).map(|v| v as u64)
}

fn read_trimmed(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .trim()
        .to_string()
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock")
        .as_millis() as u64
}
