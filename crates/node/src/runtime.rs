//! The node's event loop: sockets and a wall clock driving the sans-io
//! core.
//!
//! One thread owns the [`algorand_core::Node`]; the transport's reader
//! threads feed it through a channel. Each iteration waits for the next
//! inbound frame or the core's own deadline — whichever is sooner —
//! then:
//!
//! 1. decodes and dispatches the frame (counting and attributing decode
//!    failures by message kind and byte offset),
//! 2. applies the §4 relay rules the simulator applies (content dedup,
//!    one-message-per-key, §6 discard rules) before re-gossiping,
//! 3. persists any newly agreed round to the WAL before announcing a
//!    higher tip,
//! 4. answers blocksync (STATUS tip tracking, catch-up requests when
//!    behind).
//!
//! The runtime is also the node's telemetry plane: one [`Registry`]
//! threads through transport, WAL, and blocksync; the trace stream fans
//! out to an in-process [`MonitorHandle`] (the same invariant checks the
//! simulator runs offline) and a [`FlightHandle`] ring that a panic
//! dumps; and TELEMETRY frames are answered with the byte-stable metrics
//! exposition or a trace-buffer chunk — on the same port peers use, no
//! second listener. The exposition is the one place a node reports on
//! itself: STATUS tells peers only the tip.
//!
//! Exit: once the chain reaches `target_round` the loop lingers a
//! configured grace period — still serving votes and catch-up batches so
//! stragglers can finish — then checkpoints, writes its digest/trace/
//! metrics files into the WAL directory, and returns.

use crate::blocksync::Blocksync;
use crate::config::NodeConfig;
use crate::crash::CrashContext;
use crate::frame;
use crate::transport::{PeerId, Transport, TransportEvent};
use crate::wal::{Wal, WalMetrics};
use algorand_ba::Micros;
use algorand_core::{Node, PipelineVerifier, WireMessage};
use algorand_gossip::{RelayDecision, RelayState};
use algorand_obs::{
    expose, fanout, stable_id, write_jsonl, Counter, FlightHandle, MonitorHandle, Registry,
    SpanKind, Tracer,
};
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Trace-buffer cap when `trace = 1` (matches the simulator's default
/// order of magnitude; bounded so long runs cannot balloon).
const TRACE_CAP: usize = 200_000;

/// Flight-recorder ring size: the most recent events, kept even after
/// the main trace buffer has filled, so a crash dump always shows what
/// happened *last*.
const FLIGHT_CAP: usize = 4096;

/// Events per TELEMETRY `TRACE_DRAIN` response chunk: large enough that
/// a localnet-scale trace drains in one or two round trips, small enough
/// that a chunk stays a few MB under [`frame::MAX_FRAME`].
const TRACE_CHUNK: usize = 16_384;

/// Malformed frames logged per connection before they are only counted.
const DECODE_LOG_LINES: u32 = 8;

/// Connections whose malformed frames are logged at all: a peer that
/// reconnects to start a fresh allowance runs out of these instead.
const DECODE_LOG_PEERS: usize = 1024;

/// How often we announce our tip and poll blocksync even when idle.
const STATUS_TICK: Duration = Duration::from_millis(500);

/// Longest single wait: keeps STATUS/blocksync responsive regardless of
/// how far away the core's next deadline is.
const MAX_WAIT: Duration = Duration::from_millis(200);

/// Whether a completed run did what it was asked to. Everything it
/// counted along the way is in the `metrics.txt` it wrote.
#[derive(Debug)]
pub struct RunSummary {
    /// The configured goal round (0 = none).
    pub target_round: u64,
    /// The finalized tip when the loop exited.
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

/// One node process: core, WAL, transport, blocksync, telemetry.
pub struct Runtime {
    cfg: NodeConfig,
    node: Node,
    wal: Wal,
    transport: Transport,
    relay: RelayState,
    sync: Blocksync,
    registry: Registry,
    tracer: Tracer,
    monitor: MonitorHandle,
    flight: FlightHandle,
    /// Highest round already persisted to the WAL.
    walled_through: u64,
    /// Mirror of `walled_through` the crash hook can read from any
    /// thread mid-panic.
    last_wal_round: Arc<AtomicU64>,
    wal_replayed_rounds: u64,
    wal_truncated_bytes: u64,
    wal_replay_us: u64,
    /// `node.decode_failures`: every frame that failed wire decoding.
    decode_failures: Counter,
    /// How many of them were logged, per connection
    /// ([`DECODE_LOG_LINES`] each, [`DECODE_LOG_PEERS`] connections).
    decode_logged: HashMap<PeerId, u32>,
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
        let mut node = if replay.tip > 0 {
            Node::restore(
                cfg.keypair(),
                cfg.genesis(),
                params,
                verifier,
                &replay.snapshot,
                0,
            )
        } else {
            Node::new(cfg.keypair(), cfg.genesis(), params, verifier)
        };
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

        // Monitor and flight recorder attach to the trace stream; both
        // are created unconditionally (the crash hook needs a flight
        // handle either way), but see no events unless tracing is on.
        // The tracer attaches *after* restore, so WAL replay — a
        // re-application of already-checked rounds — is not re-audited.
        let monitor = MonitorHandle::new(cfg.monitor_config());
        let flight = FlightHandle::new(FLIGHT_CAP);
        let tracer = if cfg.trace {
            Tracer::bounded(TRACE_CAP)
        } else {
            Tracer::disabled()
        };
        if tracer.is_enabled() {
            tracer.set_observer(fanout(vec![monitor.observer(), flight.observer()]));
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
            node,
            wal,
            transport,
            relay: RelayState::new(),
            sync: Blocksync::new(),
            decode_failures: registry.counter("node.decode_failures"),
            decode_logged: HashMap::new(),
            registry,
            tracer,
            monitor,
            flight,
            walled_through: wal_replayed_rounds,
            last_wal_round: Arc::new(AtomicU64::new(wal_replayed_rounds)),
            wal_replayed_rounds,
            wal_truncated_bytes: replay.truncated_bytes,
            wal_replay_us,
            started: Instant::now(),
        })
    }

    /// What the panic hook needs: arm this with [`crate::crash::arm`]
    /// and a panicking process dumps its flight recorder to
    /// `<wal_dir>/crash.jsonl` before dying.
    pub fn crash_context(&self) -> CrashContext {
        CrashContext {
            wal_dir: self.cfg.wal_dir.clone(),
            seed: self.cfg.seed,
            flight: self.flight.clone(),
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
        let outputs = self.node.start(self.now());
        self.dispatch(outputs, None);

        let mut next_status = self.started;
        let mut linger_until: Option<Instant> = None;
        let timed_out = loop {
            let wall = Instant::now();
            if wall >= deadline {
                break self.target_pending();
            }
            if let Some(t) = linger_until {
                if wall >= t {
                    break false;
                }
            }

            let wait = self.next_wait(wall, next_status, deadline);
            match self.transport.recv_timeout(wait) {
                Some(TransportEvent::Gossip { from, bytes }) => self.on_gossip(from, &bytes),
                Some(TransportEvent::Status { from, tip }) => self.sync.note_status(from, tip),
                Some(TransportEvent::Telemetry { from, op, body }) => {
                    self.on_telemetry(from, op, &body);
                }
                None => {}
            }

            // Core timers (step timeouts, recovery, watchdog).
            let now = self.now();
            if self.node.next_deadline().is_some_and(|d| d <= now) {
                let outputs = self.node.on_tick(now);
                self.dispatch(outputs, None);
            }

            self.persist_new_rounds()?;
            let horizon = self.node.params().relay_stall_horizon();
            self.relay
                .prune(self.node.current_round(), self.now(), horizon);

            let wall = Instant::now();
            if wall >= next_status {
                next_status = wall + STATUS_TICK;
                self.transport
                    .broadcast_status(self.node.chain().tip().round);
            }
            self.request_catchup(wall);

            if linger_until.is_none()
                && self.cfg.target_round > 0
                && self.node.chain().tip().round >= self.cfg.target_round
            {
                linger_until = Some(Instant::now() + Duration::from_secs(self.cfg.linger_secs));
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
        self.cfg.target_round > 0 && self.node.chain().tip().round < self.cfg.target_round
    }

    fn next_wait(&self, wall: Instant, next_status: Instant, deadline: Instant) -> Duration {
        let mut wait = MAX_WAIT;
        if let Some(d) = self.node.next_deadline() {
            let now = self.now();
            wait = wait.min(Duration::from_micros(d.saturating_sub(now)));
        }
        wait = wait.min(next_status.saturating_duration_since(wall));
        wait = wait.min(deadline.saturating_duration_since(wall));
        wait.max(Duration::from_millis(1))
    }

    /// Asks the most advanced peer for the rounds we lack, when
    /// blocksync says to. A request that cannot be queued names a
    /// connection that is gone (or a peer too backed up to serve us):
    /// its tip is forgotten, so the next poll picks a live peer instead
    /// of asking a dead connection forever. A live peer re-announces its
    /// tip within one STATUS tick.
    fn request_catchup(&mut self, wall: Instant) {
        let tip = self.node.chain().tip().round;
        let Some(peer) = self.sync.poll(tip, wall) else {
            return;
        };
        let req = WireMessage::CatchupRequest {
            have: tip,
            tip_hash: self.node.chain().tip_hash(),
        };
        if !self.transport.send_gossip_to(peer, &req.encoded()) {
            self.sync.forget(peer);
        }
    }

    /// Handles one inbound gossip frame end to end.
    fn on_gossip(&mut self, from: PeerId, bytes: &[u8]) {
        let msg = match WireMessage::decode_frame(bytes) {
            Ok(msg) => msg,
            Err(e) => {
                // A malformed frame names its message kind and byte
                // offset, attributed to a peer — for the first few; a
                // hostile peer gets a counter, not a log of its own.
                self.decode_failures.inc();
                if self.log_decode_failure(from) {
                    eprintln!("[node {}] peer {from}: {e}", self.cfg.index);
                }
                return;
            }
        };
        let decision = self.relay.classify(msg.message_id(), msg.relay_slot());
        if decision == RelayDecision::Duplicate {
            return;
        }
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
        let delivery = self.node.on_message(&msg, self.now());

        // Catch-up traffic is point-to-point on this transport: the
        // requester asked *us*, and our response goes only to them.
        let point_to_point = matches!(
            msg,
            WireMessage::CatchupRequest { .. } | WireMessage::CatchupResponse(_)
        );
        if decision == RelayDecision::Relay && !point_to_point && delivery.relay {
            self.trace_send(&msg, bytes.len());
            self.transport.broadcast_gossip(bytes, Some(from));
        }
        self.dispatch(delivery.outputs, Some(from));
    }

    /// Whether one more malformed frame from `peer` is worth a log line.
    fn log_decode_failure(&mut self, peer: PeerId) -> bool {
        if !self.decode_logged.contains_key(&peer) && self.decode_logged.len() >= DECODE_LOG_PEERS {
            return false;
        }
        let logged = self.decode_logged.entry(peer).or_insert(0);
        let more = *logged < DECODE_LOG_LINES;
        *logged += u32::from(more);
        more
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

    /// Serves one telemetry request: refresh the registry, render, and
    /// reply on the requester's own connection. TELEMETRY traffic is
    /// unmetered, so serving a scrape perturbs none of the counters it
    /// reports — two scrapes of an idle node are byte-identical.
    fn on_telemetry(&mut self, from: PeerId, op: u8, body: &[u8]) {
        match op {
            frame::TEL_METRICS_REQ => {
                self.publish_metrics();
                let text = expose::render(&self.registry);
                self.transport
                    .send_telemetry(from, frame::TEL_METRICS_RESP, text.as_bytes());
            }
            frame::TEL_TRACE_REQ => {
                let cursor = frame::decode_trace_req(body).unwrap_or(0) as usize;
                let (events, total) = self.tracer.events_from(cursor, TRACE_CHUNK);
                let next = (cursor.min(total) + events.len()) as u64;
                let schedule = format!("drain node={} cursor={cursor}", self.cfg.index);
                let jsonl = write_jsonl(self.cfg.seed, &schedule, self.tracer.dropped(), &events);
                let resp = frame::encode_trace_resp(next, total as u64, &jsonl);
                self.transport
                    .send_telemetry(from, frame::TEL_TRACE_RESP, &resp);
            }
            _ => {}
        }
    }

    /// Routes core outputs: catch-up responses back to the requester,
    /// everything else to all peers (marked seen so echoes dedup).
    fn dispatch(&mut self, outputs: Vec<WireMessage>, reply_to: Option<PeerId>) {
        for out in outputs {
            let bytes = out.encoded();
            match (&out, reply_to) {
                (WireMessage::CatchupResponse(_), Some(peer)) => {
                    self.transport.send_gossip_to(peer, &bytes);
                }
                _ => {
                    self.relay.classify(out.message_id(), out.relay_slot());
                    self.trace_send(&out, bytes.len());
                    self.transport.broadcast_gossip(&bytes, None);
                }
            }
        }
    }

    /// Appends every newly agreed round to the WAL (and periodic
    /// checkpoints) so a `kill -9` from here on cannot lose them.
    fn persist_new_rounds(&mut self) -> io::Result<()> {
        let tip = self.node.chain().tip().round;
        while self.walled_through < tip {
            let r = self.walled_through + 1;
            let (Some(block), Some(cert)) = (
                self.node.chain().block_at(r),
                self.node.chain().certificate_at(r),
            ) else {
                break;
            };
            self.wal.append_entry(r, block, cert)?;
            self.walled_through = r;
            self.last_wal_round.store(r, Ordering::Relaxed);
            if self.cfg.checkpoint_interval > 0 && r.is_multiple_of(self.cfg.checkpoint_interval) {
                self.wal.append_checkpoint(&self.node.snapshot())?;
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
    /// node's exposition must not change between scrapes.
    fn publish_metrics(&mut self) {
        let reg = &self.registry;
        algorand_core::metrics::publish_metrics(
            reg,
            &self.node.pipeline_stats(),
            self.node.verifier(),
            &self.node.recovery_stats(),
            self.node.records().iter().map(|r| r.total()),
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
        let tip = self.node.chain().tip().round;
        let committed: usize = (1..=tip)
            .filter_map(|r| self.node.chain().block_at(r))
            .map(|b| b.txs.len())
            .sum();
        reg.gauge("workload.committed").set(committed as i64);

        // Node-specific state the sim has no analogue for.
        reg.gauge("node.tip_round").set(tip as i64);
        reg.gauge("node.current_round")
            .set(self.node.current_round() as i64);
        let h = self.node.chain().tip_hash();
        reg.gauge("node.tip_hash64")
            .set(u64::from_le_bytes(h[..8].try_into().expect("8 bytes")) as i64);
        reg.gauge("node.walled_round")
            .set(self.walled_through as i64);
        reg.gauge("wal.replayed_rounds")
            .set(self.wal_replayed_rounds as i64);
        reg.gauge("wal.truncated_bytes")
            .set(self.wal_truncated_bytes as i64);
        reg.gauge("wal.replay_us").set(self.wal_replay_us as i64);
        reg.gauge("blocksync.requests")
            .set(self.sync.requests_sent() as i64);
        reg.gauge("blocksync.cooldown_hits")
            .set(self.sync.cooldown_hits() as i64);
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

    /// Final checkpoint plus digest/trace/metrics exports.
    fn finish(&mut self, timed_out: bool) -> io::Result<RunSummary> {
        self.persist_new_rounds()?;
        self.wal.append_checkpoint(&self.node.snapshot())?;

        let reached = self.node.chain().tip().round;
        let digest = if self.cfg.target_round > 0 {
            self.node
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

        self.publish_metrics();
        write_atomic(
            &self.cfg.wal_dir.join("metrics.txt"),
            expose::render(&self.registry).as_bytes(),
        )?;

        if self.tracer.is_enabled() {
            let jsonl = write_jsonl(
                self.cfg.seed,
                "localnet",
                self.tracer.dropped(),
                &self.tracer.events(),
            );
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

    #[test]
    fn a_flood_of_garbage_frames_is_counted_in_full_and_logged_eight_times() {
        let dir = std::env::temp_dir().join(format!("algorand-runtime-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rt = Runtime::new(NodeConfig {
            listen: "127.0.0.1:0".into(),
            wal_dir: dir.clone(),
            ..NodeConfig::default()
        })
        .expect("runtime on an ephemeral port");

        for i in 0..1_000u32 {
            rt.on_gossip(7, &i.to_le_bytes());
        }
        assert_eq!(rt.registry.counter("node.decode_failures").get(), 1_000);
        assert_eq!(rt.decode_logged[&7], DECODE_LOG_LINES);
        assert_eq!(rt.decode_logged.len(), 1);

        // Another connection has its own allowance, until connections
        // run out: then frames are counted and nothing more is kept.
        rt.on_gossip(8, b"garbage");
        assert_eq!(rt.decode_logged[&8], 1);
        for peer in 100..100 + 2 * DECODE_LOG_PEERS as PeerId {
            rt.on_gossip(peer, b"garbage");
        }
        assert_eq!(rt.decode_logged.len(), DECODE_LOG_PEERS);
        assert_eq!(
            rt.decode_failures.get(),
            1_001 + 2 * DECODE_LOG_PEERS as u64
        );

        rt.transport.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_catchup_request_to_a_dead_connection_forgets_its_tip() {
        let dir = std::env::temp_dir().join(format!("algorand-catchup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rt = Runtime::new(NodeConfig {
            listen: "127.0.0.1:0".into(),
            wal_dir: dir.clone(),
            ..NodeConfig::default()
        })
        .expect("runtime on an ephemeral port");

        // Connection 99 announced round 5, then went away: the request
        // cannot be queued, and the next poll must not pick it again.
        rt.sync.note_status(99, 5);
        rt.request_catchup(Instant::now());
        assert_eq!(rt.sync.requests_sent(), 1);
        assert_eq!(
            rt.sync.best_tip(),
            0,
            "the dead connection's tip is forgotten"
        );

        rt.transport.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
