//! The node's event loop: the OS adapter around the sans-io
//! [`algorand_core::Process`].
//!
//! One thread owns the process; the transport's reader threads feed it
//! through a channel. Each iteration waits for the next inbound frame or
//! the process's own deadline — whichever is sooner — then:
//!
//! 1. decodes the frame (counting and attributing decode failures by
//!    message kind and byte offset) and classifies it with the §4 relay
//!    rules the simulator applies (content dedup, one-message-per-key),
//! 2. hands it, a STATUS tip or the clock to the process,
//! 3. carries out the [`Effect`]s: frames onto sockets, final rounds into
//!    the WAL, the tip into STATUS frames.
//!
//! What to send where, when to announce and when to ask for history are
//! the process's decisions, the same ones it makes under the simulator.
//!
//! The runtime is also the node's telemetry plane: one [`Registry`]
//! threads through transport and WAL; the trace stream lands in one
//! bounded [`Tracer`] buffer of the most recent events, which exit
//! writes and a panic dumps, and feeds an in-process [`MonitorHandle`]
//! (the same invariant checks the simulator runs offline); and at every
//! STATUS announcement, and at exit, the runtime
//! rewrites `<wal_dir>/metrics.txt` with the byte-stable metrics
//! exposition. That file is the one place a live node reports on itself:
//! STATUS tells peers only the tip, and the peer port answers nothing
//! else.
//!
//! Exit: once the chain reaches `target_round` the loop lingers a
//! configured grace period — still serving votes and catch-up batches so
//! stragglers can finish — then writes its digest/metrics/trace files
//! into the WAL directory, and returns. The trace file is the one way a
//! node's trace leaves the process; its header's `schedule` names the
//! node (`node=<index>`), which is what merging a cluster's files keys on.

use crate::config::NodeConfig;
use crate::crash::CrashContext;
use crate::transport::{PeerId, Transport, TransportEvent};
use crate::wal::{Wal, WalMetrics};
use algorand_ba::Micros;
use algorand_core::{Effect, Node, PipelineVerifier, Process, WireMessage};
use algorand_gossip::{RelayDecision, RelayState};
use algorand_obs::{expose, stable_id, Counter, MonitorHandle, Registry, SpanKind, Tracer};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Trace-buffer cap when `trace = 1` (matches the simulator's default
/// order of magnitude; bounded so long runs cannot balloon). A full
/// buffer evicts its oldest event, so the exit trace and a crash dump
/// both show what happened *last*.
const TRACE_CAP: usize = 200_000;

/// Malformed frames the process logs before it only counts them: one
/// budget however many connections send them.
const DECODE_LOG_LINES: u32 = 64;

/// Whether a completed run did what it was asked to. Everything it
/// counted along the way is in the `metrics.txt` it wrote.
#[derive(Debug)]
pub struct RunSummary {
    /// The configured goal round (0 = none).
    pub target_round: u64,
    /// The chain tip when the loop exited; its last rounds may still be
    /// tentative.
    pub reached_round: u64,
    /// Hex chain digest through `target_round`, if reached.
    pub digest: Option<String>,
    /// True if the deadline expired before the target was reached.
    pub timed_out: bool,
}

impl RunSummary {
    /// True when the run did what it was asked to.
    pub fn success(&self) -> bool {
        self.target_round == 0 || (!self.timed_out && self.reached_round >= self.target_round)
    }
}

/// One node process: the sans-io process, WAL, transport, telemetry.
pub struct Runtime {
    cfg: NodeConfig,
    process: Process,
    wal: Wal,
    transport: Transport,
    relay: RelayState,
    registry: Registry,
    tracer: Tracer,
    monitor: MonitorHandle,
    /// The last round appended to the WAL, readable by the crash hook
    /// from any thread mid-panic.
    last_wal_round: Arc<AtomicU64>,
    wal_replayed_rounds: u64,
    wal_truncated_bytes: u64,
    wal_replay_us: u64,
    /// `node.decode_failures`: every frame that failed wire decoding.
    decode_failures: Counter,
    /// How many of them were logged, at most [`DECODE_LOG_LINES`].
    decode_logged: u32,
    started: Instant,
}

impl Runtime {
    /// Opens the WAL (replaying any prior life), restores or creates the
    /// core node, preloads the deterministic workload, and binds the
    /// transport.
    ///
    /// # Errors
    ///
    /// Propagates WAL/transport I/O failures.
    pub fn new(cfg: NodeConfig) -> io::Result<Runtime> {
        std::fs::create_dir_all(&cfg.wal_dir)?;
        let registry = Registry::new();

        let replay_started = Instant::now();
        let (mut wal, replay) = Wal::open(&cfg.wal_dir.join("node.wal"))?;
        let wal_replay_us = replay_started.elapsed().as_micros() as u64;
        wal.set_metrics(WalMetrics::new(&registry));
        if replay.truncated_bytes > 0 {
            registry.counter("wal.torn_truncations").inc();
        }

        let params = cfg.params();
        let verifier = Arc::new(PipelineVerifier::new());
        let mut node = Node::restore(
            cfg.keypair(),
            cfg.genesis(),
            params,
            verifier,
            &replay.chain,
            0,
        );
        let wal_replayed_rounds = node.chain().tip().round;

        // The deterministic shared workload: every process (and the
        // simulator's reference run) admits the same transactions before
        // round 1, so block assembly is a pure function of chain state.
        // After a WAL restore the accounts state already reflects
        // committed transactions and the pool re-admits only what is
        // still pending.
        let accounts = node.chain().accounts().clone();
        for tx in cfg.workload() {
            let _ = node.pool.admit(tx, &accounts);
        }

        // The monitor is the trace stream's one observer; it is created
        // unconditionally, but sees no events unless tracing is on.
        // The tracer attaches *after* restore, so WAL replay — a
        // re-application of already-checked rounds — is not re-audited.
        let monitor = MonitorHandle::new(cfg.monitor_config());
        let tracer = if cfg.trace {
            Tracer::bounded(TRACE_CAP)
        } else {
            Tracer::disabled()
        };
        if tracer.is_enabled() {
            tracer.set_observer(monitor.observer());
            node.set_tracer(tracer.clone(), cfg.index as u32);
        }

        let transport = Transport::start(&cfg.listen, &cfg.peers, registry.clone())?;
        // Publish the *resolved* listen address (meaningful when the
        // config asked for an ephemeral `:0` port) so a deployment
        // harness can read each process's real endpoint and hand it to
        // later-started peers.
        write_atomic(&cfg.wal_dir.join("addr"), transport.local_addr().as_bytes())?;

        Ok(Runtime {
            cfg,
            process: Process::new(node, wal_replayed_rounds),
            wal,
            transport,
            relay: RelayState::new(),
            decode_failures: registry.counter("node.decode_failures"),
            decode_logged: 0,
            registry,
            tracer,
            monitor,
            last_wal_round: Arc::new(AtomicU64::new(wal_replayed_rounds)),
            wal_replayed_rounds,
            wal_truncated_bytes: replay.truncated_bytes,
            wal_replay_us,
            started: Instant::now(),
        })
    }

    /// What the panic hook needs: arm this with [`crate::crash::arm`]
    /// and a panicking process dumps its trace buffer to
    /// `<wal_dir>/crash.jsonl` before dying.
    pub fn crash_context(&self) -> CrashContext {
        CrashContext {
            wal_dir: self.cfg.wal_dir.clone(),
            seed: self.cfg.seed,
            tracer: self.tracer.clone(),
            last_wal_round: Arc::clone(&self.last_wal_round),
        }
    }

    /// Microseconds since this process started — the core's clock. WAL
    /// restore happens at 0, so a restarted process's clock restarts
    /// too; canonical timestamps keep block content clock-independent.
    fn now(&self) -> Micros {
        self.started.elapsed().as_micros() as u64
    }

    /// Runs to completion (target reached + linger, or deadline).
    ///
    /// # Errors
    ///
    /// Propagates WAL and export I/O failures. Network failures are not
    /// errors — peers come and go; the deadline is the backstop.
    pub fn run(&mut self) -> io::Result<RunSummary> {
        self.await_start_barriers();
        // The consensus clock starts *after* the barriers so every
        // process opens round 1 at local time ≈ 0, wall-aligned with
        // its peers; the deadline budget is all consensus time.
        self.started = Instant::now();
        let deadline = self.started + Duration::from_secs(self.cfg.deadline_secs);
        let effects = self.process.start(self.now());
        self.apply(effects, None)?;

        let mut until = deadline;
        let mut lingering = false;
        let timed_out = loop {
            let wall = Instant::now();
            if wall >= until {
                break self.target_pending();
            }

            match self.transport.recv_timeout(self.next_wait(wall, until)) {
                Some(TransportEvent::Gossip { from, bytes }) => self.on_gossip(from, &bytes)?,
                Some(TransportEvent::Status { from, tip }) => self.process.on_status(from, tip),
                None => {}
            }

            let now = self.now();
            if self.process.next_deadline() <= now {
                let effects = self.process.on_tick(now);
                self.apply(effects, None)?;
            }
            let node = self.process.node();
            let horizon = node.params().relay_stall_horizon();
            self.relay.prune(node.current_round(), now, horizon);

            if !lingering && self.cfg.target_round > 0 && !self.target_pending() {
                lingering = true;
                let linger = Instant::now() + Duration::from_secs(self.cfg.linger_secs);
                until = until.min(linger);
            }
        };

        self.finish(timed_out)
    }

    /// Holds consensus back until the mesh is formed (`min_peers` live
    /// connections — gossip into an empty mesh is simply lost) and the
    /// shared `start_at_ms` wall-clock instant has passed, which aligns
    /// co-hosted processes' round-1 openings to within milliseconds.
    /// Both waits are bounded; a degraded start beats no start.
    fn await_start_barriers(&self) {
        let connect_deadline = Instant::now() + Duration::from_secs(self.cfg.deadline_secs.min(30));
        while self.transport.peer_count() < self.cfg.min_peers && Instant::now() < connect_deadline
        {
            std::thread::sleep(Duration::from_millis(25));
        }
        if self.cfg.start_at_ms > 0 {
            let barrier_cap = Instant::now() + Duration::from_secs(60);
            loop {
                let now_ms = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(u64::MAX, |d| d.as_millis() as u64);
                if now_ms >= self.cfg.start_at_ms || Instant::now() >= barrier_cap {
                    break;
                }
                let wait = (self.cfg.start_at_ms - now_ms).min(20);
                std::thread::sleep(Duration::from_millis(wait.max(1)));
            }
        }
    }

    fn target_pending(&self) -> bool {
        self.cfg.target_round > 0 && self.process.node().chain().tip().round < self.cfg.target_round
    }

    /// How long to wait for a frame: until the process's next deadline
    /// or `until`, whichever is sooner, and at least a millisecond.
    fn next_wait(&self, wall: Instant, until: Instant) -> Duration {
        let mut wait = until.saturating_duration_since(wall);
        let d = self.process.next_deadline();
        wait = wait.min(Duration::from_micros(d.saturating_sub(self.now())));
        wait.max(Duration::from_millis(1))
    }

    /// Handles one inbound gossip frame end to end.
    fn on_gossip(&mut self, from: PeerId, bytes: &[u8]) -> io::Result<()> {
        let msg = match WireMessage::decode_frame(bytes) {
            Ok(msg) => msg,
            Err(e) => {
                // A malformed frame names its message kind and byte
                // offset, attributed to a connection — for the first
                // few in the process; the rest only count.
                self.decode_failures.inc();
                if self.decode_logged < DECODE_LOG_LINES {
                    self.decode_logged += 1;
                    eprintln!("[node {}] peer {from}: {e}", self.cfg.index);
                }
                return Ok(());
            }
        };
        // Catch-up is point to point: no relay view, never forwarded.
        let may_forward = if msg.is_point_to_point() {
            false
        } else {
            match self.relay.classify(msg.message_id(), msg.relay_slot()) {
                RelayDecision::Duplicate => return Ok(()),
                decision => decision == RelayDecision::Relay,
            }
        };
        // Arrival half of a cross-process gossip hop: an instant stamped
        // with the message's content id. The sender's matching "send"
        // instant lives in *its* trace; `obs::merge` fuses the two into
        // the simulator-shaped hop span (peer = sender, start = send).
        if self.tracer.is_enabled() {
            if let Some((label, round)) = msg.hop_label() {
                self.tracer
                    .span(
                        SpanKind::GossipHop,
                        self.cfg.index as u32,
                        round,
                        self.now(),
                    )
                    .label(label)
                    .id(stable_id(&msg.message_id()))
                    .value(bytes.len() as u64)
                    .instant();
            }
        }
        let effects = self.process.on_message(from, &msg, may_forward, self.now());
        self.apply(effects, Some((&msg, bytes)))
    }

    /// Send half of a cross-process gossip hop: an instant recorded at
    /// broadcast time, labeled `"send"`, carrying the message's content
    /// id, its wire size, and the deepest send-queue occupancy at that
    /// moment (`step`) — the "queue depth at send" a merged critical
    /// path attributes wire time with. Dropped by `obs::merge` once
    /// fused into receiver-side hops.
    fn trace_send(&self, msg: &WireMessage, wire_bytes: usize) {
        if !self.tracer.is_enabled() {
            return;
        }
        let Some((_, round)) = msg.hop_label() else {
            return;
        };
        let depth = self.transport.max_send_queue_depth();
        self.tracer
            .span(
                SpanKind::GossipHop,
                self.cfg.index as u32,
                round,
                self.now(),
            )
            .label("send")
            .step(depth.min(u64::from(u32::MAX)) as u32)
            .id(stable_id(&msg.message_id()))
            .value(wire_bytes as u64)
            .instant();
    }

    /// Carries out the process's effects. `delivered` is the message a
    /// [`Effect::Forward`] sends on, with the frame it arrived in.
    ///
    /// A message the node emits is marked seen before it goes out, so
    /// echoes dedup. A point-to-point send that cannot be queued names a
    /// connection that is gone (or a peer too backed up to serve us): the
    /// process forgets its tip, so blocksync stops choosing it. A final
    /// round goes into the WAL before the next input, so a `kill -9`
    /// from then on cannot lose it.
    fn apply(
        &mut self,
        effects: Vec<Effect>,
        delivered: Option<(&WireMessage, &[u8])>,
    ) -> io::Result<()> {
        for effect in effects {
            match effect {
                Effect::Broadcast(msg) => {
                    let bytes = msg.encoded();
                    self.relay.classify(msg.message_id(), msg.relay_slot());
                    self.trace_send(&msg, bytes.len());
                    self.transport.broadcast_gossip(&bytes, None);
                }
                Effect::Forward { exclude } => {
                    let (msg, bytes) = delivered.expect("a forward follows a delivery");
                    self.trace_send(msg, bytes.len());
                    self.transport.broadcast_gossip(bytes, Some(exclude));
                }
                // A send to a connection that is gone is lost: blocksync
                // spent that peer's tip when it chose it, and a dead
                // connection announces none again.
                Effect::SendTo(peer, msg) => {
                    self.transport.send_gossip_to(peer, &msg.encoded());
                }
                Effect::AppendFinal(r) => {
                    let (block, cert) = self.process.final_entry(r);
                    self.wal.append_entry(r, block, cert)?;
                    self.last_wal_round.store(r, Ordering::Relaxed);
                }
                Effect::AnnounceTip(tip) => {
                    self.transport.broadcast_status(tip);
                    self.write_metrics()?;
                }
            }
        }
        Ok(())
    }

    /// Refreshes every derived gauge on the registry. The names the
    /// simulator's exposition shares (`pipeline.*`, `verify.*`,
    /// `recovery.*`, `round.latency_us`) come from the one function that
    /// publishes them for both, so the same dashboards and assertions
    /// read either; transport and WAL counters are live and need no
    /// refresh. Idempotent — gauges overwrite, the histogram is
    /// replaced. Deliberately no wall-clock-derived values: an idle
    /// node's exposition must not change between writes.
    fn publish_metrics(&mut self) {
        let reg = &self.registry;
        let node = self.process.node();
        algorand_core::metrics::publish_metrics(
            reg,
            &node.pipeline_stats(),
            node.verifier(),
            &node.recovery_stats(),
            node.records().iter().map(|r| r.total()),
        );
        // No fault injection in a real process: partitions stay 0 and a
        // restart is evidenced by a non-empty WAL replay.
        reg.gauge("faults.partitions").set(0);
        reg.gauge("faults.restarts")
            .set(i64::from(self.wal_replayed_rounds > 0));
        reg.gauge("net.total_bytes_sent")
            .set(reg.counter("transport.bytes_sent").get() as i64);
        reg.gauge("trace.dropped").set(self.tracer.dropped() as i64);
        reg.gauge("workload.injected").set(self.cfg.tx_count as i64);
        let tip = node.chain().tip().round;
        let committed: usize = (1..=tip)
            .filter_map(|r| node.chain().block_at(r))
            .map(|b| b.txs.len())
            .sum();
        reg.gauge("workload.committed").set(committed as i64);

        // Node-specific state the sim has no analogue for.
        reg.gauge("node.tip_round").set(tip as i64);
        reg.gauge("node.current_round")
            .set(node.current_round() as i64);
        let h = node.chain().tip_hash();
        reg.gauge("node.tip_hash64")
            .set(u64::from_le_bytes(h[..8].try_into().expect("8 bytes")) as i64);
        reg.gauge("node.walled_round")
            .set(self.process.walled_through() as i64);
        reg.gauge("wal.replayed_rounds")
            .set(self.wal_replayed_rounds as i64);
        reg.gauge("wal.truncated_bytes")
            .set(self.wal_truncated_bytes as i64);
        reg.gauge("wal.replay_us").set(self.wal_replay_us as i64);
        reg.gauge("blocksync.requests")
            .set(self.process.blocksync().requests_sent() as i64);
        reg.gauge("monitor.violations")
            .set(self.monitor.report().total_violations() as i64);
        // Process-wide: what `PublicKey::from_bytes` paid in full and
        // what it answered from its table of proven keys, and how many
        // key combs verification built and multiplied off.
        let keys = algorand_crypto::sig::key_table_stats();
        reg.gauge("node.key_checks").set(keys.checks as i64);
        reg.gauge("node.key_hits").set(keys.hits as i64);
        reg.gauge("node.key_combs_built")
            .set(keys.combs_built as i64);
        reg.gauge("node.key_comb_hits").set(keys.comb_hits as i64);
        self.transport.publish();
    }

    /// Rewrites `<wal_dir>/metrics.txt` with the current exposition. No
    /// counter moves doing it, so an idle node rewrites the same bytes.
    fn write_metrics(&mut self) -> io::Result<()> {
        self.publish_metrics();
        write_atomic(
            &self.cfg.wal_dir.join("metrics.txt"),
            expose::render(&self.registry).as_bytes(),
        )
    }

    /// Writes the digest/trace/metrics exports. Every final round is in
    /// the WAL already: the process hands them out as they happen.
    fn finish(&mut self, timed_out: bool) -> io::Result<RunSummary> {
        let reached = self.process.node().chain().tip().round;
        let digest = if self.cfg.target_round > 0 {
            self.process
                .node()
                .chain()
                .digest_through(self.cfg.target_round)
                .map(|d| hex(&d))
        } else {
            None
        };
        if let Some(d) = &digest {
            write_atomic(
                &self.cfg.wal_dir.join("digest"),
                format!("{d}\n").as_bytes(),
            )?;
        }

        self.write_metrics()?;

        if self.tracer.is_enabled() {
            let jsonl = self
                .tracer
                .export_jsonl(self.cfg.seed, &format!("node={}", self.cfg.index));
            write_atomic(&self.cfg.wal_dir.join("trace.jsonl"), jsonl.as_bytes())?;
        }

        if self.monitor.report().total_violations() > 0 {
            eprintln!(
                "[node {}] monitor: {}",
                self.cfg.index,
                self.monitor.report().machine_line()
            );
        }

        self.transport.shutdown();
        Ok(RunSummary {
            target_round: self.cfg.target_round,
            reached_round: reached,
            digest,
            timed_out,
        })
    }
}

/// Write-then-rename so harness readers never see a half-written file.
fn write_atomic(path: &PathBuf, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

/// Lowercase hex.
pub fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::derive_keypairs;
    use algorand_ba::{Certificate, VoteMessage};
    use algorand_core::CatchupBatch;
    use algorand_ledger::{Block, Blockchain};
    use algorand_sim::{SimConfig, Simulation};
    use std::path::Path;

    /// A runtime on an ephemeral port whose WAL lives in `dir`: a fresh
    /// node if the WAL is empty, else a restart from it.
    fn runtime(dir: &Path) -> Runtime {
        Runtime::new(NodeConfig {
            listen: "127.0.0.1:0".into(),
            wal_dir: dir.to_path_buf(),
            ..NodeConfig::default()
        })
        .expect("runtime on an ephemeral port")
    }

    /// A fresh directory for one test's WAL.
    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("algorand-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Rounds `1..=rounds` of the chain the simulator agrees on for the
    /// runtime's deployment: certified history a real node validates.
    fn majority_history(cfg: &NodeConfig, rounds: u64) -> Vec<(Block, Certificate)> {
        let mut sim_cfg = SimConfig::new(cfg.n_users);
        sim_cfg.seed = cfg.seed;
        sim_cfg.stake_per_user = cfg.stake_per_user;
        sim_cfg.params = cfg.params();
        let mut sim = Simulation::new(sim_cfg);
        sim.run_rounds(rounds, 600_000_000);
        let chain = sim.honest_node(0).chain();
        let pair = |r| Some((chain.block_at(r)?.clone(), chain.certificate_at(r)?.clone()));
        (1..=rounds)
            .map(|r| pair(r).expect("an agreed round"))
            .collect()
    }

    /// Puts a fresh-logged process over `chain` into the runtime, as if
    /// its node had agreed on that chain itself, and starts it: the
    /// final rounds go to the WAL.
    fn adopt(rt: &mut Runtime, chain: Blockchain) {
        let verifier = Arc::new(PipelineVerifier::new());
        let node = Node::new(rt.cfg.keypair(), chain, rt.cfg.params(), verifier);
        rt.process = Process::new(node, 0);
        let effects = rt.process.start(0);
        rt.apply(effects, None).expect("WAL append");
    }

    /// Delivers `msg` from peer 0 as a frame, through the relay view,
    /// and carries out what follows.
    fn deliver(rt: &mut Runtime, msg: &WireMessage) {
        rt.on_gossip(0, &msg.encoded()).expect("WAL append");
    }

    fn append(chain: &mut Blockchain, (block, cert): &(Block, Certificate)) {
        chain
            .append(block.clone(), Some(cert.clone()), false, block.timestamp)
            .expect("a valid block");
    }

    #[test]
    fn tentative_rounds_are_not_kept_across_a_restart() {
        let dir = fresh_dir("tentative-restart");
        let mut rt = runtime(&dir);
        let history = majority_history(&rt.cfg, 3);
        // Round 1 is final; rounds 2 and 3 are tentative, as on a node
        // that has not yet seen a final round since.
        let mut chain = rt.cfg.genesis();
        for entry in &history {
            append(&mut chain, entry);
        }
        chain.finalize(1);
        let was_final: Vec<bool> = (0..=3).map(|r| chain.is_finalized(r)).collect();
        adopt(&mut rt, chain);
        rt.transport.shutdown();
        drop(rt);

        let rt = runtime(&dir);
        let chain = rt.process.node().chain();
        assert_eq!(chain.tip().round, 1, "only the final round was kept");
        assert_eq!(chain.tip_hash(), history[0].0.hash());
        for r in 0..=chain.tip().round {
            assert_eq!(chain.is_finalized(r), was_final[r as usize], "round {r}");
        }
        rt.transport.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reorg_then_a_kill_restores_onto_the_majority_fork() {
        let dir = fresh_dir("reorg-restart");
        let mut rt = runtime(&dir);
        let history = majority_history(&rt.cfg, 3);

        // The minority's round 2: a different block, certified by the
        // same committee members re-signing their votes for it (§8.2's
        // tentative fork; the sortition proofs do not name the value).
        let mut divergent = history[1].0.clone();
        assert!(divergent.proposer.is_some(), "round 2 is a proposed block");
        divergent.payload = vec![0x5a];
        let keys = derive_keypairs(rt.cfg.seed, rt.cfg.n_users);
        let mut cert = history[1].1.clone();
        let value = divergent.hash();
        cert.value = value;
        for v in &mut cert.votes {
            let kp = keys.iter().find(|k| k.pk == v.sender).expect("a user");
            *v = VoteMessage::sign(
                kp,
                v.round,
                v.step,
                v.sorthash,
                v.sort_proof,
                v.prev_hash,
                value,
            );
        }
        let mut chain = rt.cfg.genesis();
        append(&mut chain, &history[0]);
        chain.finalize(1);
        append(&mut chain, &(divergent, cert));
        adopt(&mut rt, chain);

        // The majority's longer chain displaces the tentative round 2.
        let majority = WireMessage::CatchupResponse(CatchupBatch {
            entries: history[1..].to_vec(),
        });
        deliver(&mut rt, &majority);
        let node = rt.process.node();
        assert_eq!(node.recovery_stats().catchup_reorgs, 1);
        assert_eq!(node.chain().tip_hash(), history[2].0.hash());
        rt.transport.shutdown();
        drop(rt);

        // Killed and restarted: the WAL holds nothing the reorg displaced,
        // so the majority batch applies again.
        let mut rt = runtime(&dir);
        deliver(&mut rt, &majority);
        assert_eq!(
            rt.process.node().chain().tip_hash(),
            history[2].0.hash(),
            "the restarted node ends on the majority chain"
        );
        rt.transport.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_same_catchup_request_is_answered_every_time() {
        let dir = fresh_dir("catchup-twice");
        let mut rt = runtime(&dir);
        let history = majority_history(&rt.cfg, 2);
        let mut chain = rt.cfg.genesis();
        for entry in &history {
            append(&mut chain, entry);
        }
        chain.finalize(2);
        adopt(&mut rt, chain);

        // A retry, or a second node lagging at the same tip, sends the
        // same bytes again.
        let request = WireMessage::CatchupRequest {
            have: 0,
            tip_hash: rt.cfg.genesis().tip_hash(),
        };
        let emitted = |rt: &Runtime| rt.process.node().pipeline_stats().emitted;
        let before = emitted(&rt);
        deliver(&mut rt, &request);
        deliver(&mut rt, &request);
        assert_eq!(emitted(&rt) - before, 2, "one response per request");

        rt.transport.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_status_ticks_of_an_idle_node_write_byte_identical_metrics() {
        let dir = fresh_dir("idle-metrics");
        let mut rt = Runtime::new(NodeConfig {
            listen: "127.0.0.1:0".into(),
            wal_dir: dir.clone(),
            tx_count: 8,
            trace: true,
            ..NodeConfig::default()
        })
        .expect("runtime on an ephemeral port");
        let metrics = dir.join("metrics.txt");
        // Starting announces the tip: the first write.
        let effects = rt.process.start(0);
        rt.apply(effects, None).expect("first write");
        let first = std::fs::read_to_string(&metrics).expect("first metrics.txt");
        // The next deadline is the next STATUS tick, and nothing else is
        // due there: the node's own timers fire later.
        let tick = rt.process.next_deadline();
        let effects = rt.process.on_tick(tick);
        assert!(
            matches!(effects[..], [Effect::AnnounceTip(0)]),
            "{effects:?}"
        );
        rt.apply(effects, None).expect("second write");
        let second = std::fs::read_to_string(&metrics).expect("second metrics.txt");

        for required in [
            "node.tip_round",
            "pipeline.ingested",
            "wal.entries",
            "transport.frames_sent",
            "monitor.violations 0",
            "trace.dropped 0",
        ] {
            assert!(first.contains(required), "missing `{required}`:\n{first}");
        }
        // `node.key_*` read the crypto crate's process-wide key table,
        // which the other tests in this binary move concurrently.
        let own = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| !l.starts_with("node.key_"))
                .map(String::from)
                .collect()
        };
        assert_eq!(own(&first), own(&second));

        rt.transport.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flood_of_garbage_frames_is_counted_in_full_and_logged_up_to_the_budget() {
        let dir = fresh_dir("runtime");
        let mut rt = runtime(&dir);

        // Four connections share one budget.
        for i in 0..1_000u32 {
            rt.on_gossip(PeerId::from(i % 4), &i.to_le_bytes())
                .expect("no WAL append");
        }
        assert_eq!(rt.registry.counter("node.decode_failures").get(), 1_000);
        assert_eq!(rt.decode_logged, DECODE_LOG_LINES);

        // A fresh connection starts no fresh allowance: its frames are
        // counted and the budget stays spent.
        for peer in 100..100 + 2_048 {
            rt.on_gossip(peer, b"garbage").expect("no WAL append");
        }
        assert_eq!(rt.registry.counter("node.decode_failures").get(), 3_048);
        assert_eq!(rt.decode_logged, DECODE_LOG_LINES);

        rt.transport.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_catchup_request_to_a_dead_connection_forgets_its_tip() {
        let dir = fresh_dir("catchup");
        let mut rt = runtime(&dir);

        // Connection 99 announced round 5, then went away: the request
        // cannot be queued, and the next poll must not pick it again —
        // asking spent its tip, and a dead connection announces no other.
        rt.process.on_status(99, 5);
        let effects = rt.process.on_tick(rt.now());
        rt.apply(effects, None).expect("no WAL append");
        let sync = rt.process.blocksync();
        assert_eq!(sync.requests_sent(), 1);
        assert_eq!(
            sync.next_request(0, 0),
            None,
            "the dead connection's tip is forgotten"
        );

        rt.transport.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
