//! The simulation engine: N Algorand users over a gossip network in
//! virtual time — the stand-in for the paper's 1,000-VM EC2 testbed
//! (§10) — run as a conservative discrete-event simulation whose node
//! phase may be spread over worker threads.
//!
//! # Execution model
//!
//! Virtual time advances in synchronized *windows* `[T, E)` where
//! `E = min(T + lookahead, next global event, next peer churn, t_end)`
//! and the lookahead is the network's minimum one-way delay
//! ([`crate::network::Network::min_delay`]). Because every message sent
//! at a time `t ≥ T` arrives no earlier than `t + lookahead ≥ E`, no
//! event inside a window can cause another event inside the same window
//! at a *different* node — so each node's events can be processed on any
//! worker thread without synchronization.
//!
//! A window runs in three phases:
//!
//! 1. **Extract (sequential).** Pop every event below `E` from the
//!    calendar queue — whole buckets of virtual time, at most one split
//!    at `E` — sort the batch into canonical `(time, class, seq)` order
//!    and assign each a monotone *order hint* from the engine-global
//!    counter.
//! 2. **Node phase (parallel).** Work units — one per honest node, plus
//!    a single unit holding *all* malicious nodes so coalition state is
//!    mutated in canonical order — are claimed by workers, each unit a
//!    disjoint `&mut` loan of the engine's node cells. Each unit
//!    processes its events in key order, touching only per-node state
//!    (the node's [`Process`], relay view, private tracer, pending wake).
//!    A delivery is classified by the relay view first, as on a real
//!    node; what the process does with it comes back as effects, which
//!    are buffered as send intents. Chained timer wakes that land inside
//!    the window run immediately, inheriting their trigger's hint.
//! 3. **Barrier (sequential).** Intents are sorted by
//!    `(hint, emission index)` and replayed against the shared state in
//!    that canonical order: topology fan-out (a point-to-point send goes
//!    to its one peer), uplink serialization,
//!    jitter/loss RNG draws, delivery scheduling (which assigns the next
//!    window's sequence numbers), and gossip-hop tracing. Per-node
//!    trace buffers are then drained, merged by hint, fed to the
//!    invariant monitor, and retained under the per-node budget.
//!
//! Global events (workload injections, scripted faults) run between
//! windows, before any node event at the same instant.
//!
//! Every shared-state mutation happens in a sequential phase in an order
//! derived only from canonical keys — never from thread interleaving —
//! so for any seed the chain digests, monitor verdicts, and exported
//! traces are byte-identical at 1, 2, or N workers. The determinism gate
//! (`bench/src/bin/chaos_determinism.rs`) enforces exactly that.

use crate::adversary::{Adversary, AdversaryShared, Outgoing};
use crate::des::queue::{CalendarQueue, OrderKey, CLASS_DELIVER, CLASS_WAKE};
use crate::event::Micros;
use crate::faults::{FaultAction, FaultEvent, FaultSchedule};
use crate::harness::{
    self, FaultReport, InjectStep, KindBytes, NodeCarry, PipelineReport, SimConfig, SimMsg,
    TxRecord, TxStats, Workload, ANNOUNCE_SIZE, STATUS_SIZE, TRACE_CAP,
};
use crate::metrics::{round_stats, RoundStats};
use crate::network::Network;
use algorand_core::{
    derive_keypairs, Effect, Node, PeerId, PipelineVerifier, Process, RoundRecord, WireKind,
    WireMessage,
};
use algorand_crypto::rng::Rng;
use algorand_crypto::Keypair;
use algorand_gossip::{RelayDecision, RelayMetrics, RelayState, Topology};
use algorand_ledger::Transaction;
use algorand_obs::{
    stable_id, write_jsonl_trimmed, InvariantMonitor, MonitorReport, Registry, SpanKind,
    TraceEvent, Tracer, NO_NODE,
};
use algorand_txpool::PoolMetrics;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Below this many window events the node phase stays on the calling
/// thread: spawning workers for a handful of events costs more than it
/// saves.
const PARALLEL_THRESHOLD: usize = 192;

/// Gossip peers each user dials (paper: 4).
const OUT_DEGREE: usize = 4;

/// How often each user re-draws its gossip peers, roughly once per
/// expected round (§8.4: "Algorand replaces gossip peers each round",
/// which also heals nodes stuck in a disconnected component).
const PEER_CHURN_INTERVAL: Micros = 15_000_000;

/// Engine configuration: the simulated deployment plus how to run it.
/// A bare [`SimConfig`] converts into one worker and unlimited trace
/// retention.
#[derive(Clone, Debug)]
pub struct DesConfig {
    /// The shared population/workload/fault configuration.
    pub sim: SimConfig,
    /// Worker threads for the node phase (1 = run windows inline).
    /// Results are byte-identical at any value.
    pub workers: usize,
    /// Per-node cap on *retained* trace events (0 = unlimited). Events
    /// past the budget are counted as `trimmed` in the export header;
    /// the invariant monitor still observes the full stream.
    pub trace_node_budget: usize,
}

impl From<SimConfig> for DesConfig {
    fn from(sim: SimConfig) -> DesConfig {
        DesConfig {
            sim,
            workers: 1,
            trace_node_budget: 0,
        }
    }
}

/// One node event, routed into a window inbox.
enum DesEvent {
    Deliver { from: usize, msg: Arc<SimMsg> },
    Status { from: usize, tip: u64 },
    Wake,
}

/// A global (non-node) event, handled sequentially between windows.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum GlobalKind {
    Inject,
    Fault(usize),
}

/// One event routed into a node's window inbox.
struct InEvent {
    hint: u64,
    time: Micros,
    kind: DesEvent,
}

impl InEvent {
    fn class(&self) -> u8 {
        match self.kind {
            DesEvent::Deliver { .. } | DesEvent::Status { .. } => CLASS_DELIVER,
            DesEvent::Wake => CLASS_WAKE,
        }
    }

    fn tiebreak(&self, node: usize) -> u64 {
        match self.kind {
            DesEvent::Deliver { .. } | DesEvent::Status { .. } => self.hint,
            DesEvent::Wake => node as u64,
        }
    }
}

/// A deferred send, replayed against shared network state in a
/// sequential phase in `(hint, seq)` order.
struct Intent {
    hint: u64,
    seq: u64,
    time: Micros,
    from: usize,
    kind: IntentKind,
}

enum IntentKind {
    /// `body` to every neighbour except `exclude`.
    Forward { body: Body, exclude: Option<usize> },
    /// Equivocation split: `a` to even-indexed peers, `b` to odd.
    Split { a: Body, b: Body },
    /// Point to point: `body` to node `to` alone, neighbour or not.
    SendTo { body: Body, to: usize },
}

/// All state one node's events may touch during the parallel phase.
struct NodeCell {
    id: usize,
    /// Boxed, as each node is built: a process is ~2.5 KB, and the
    /// engine walks cells.
    process: Box<Process>,
    /// What rewrites a malicious user's broadcasts (`None`: honest).
    adversary: Option<Adversary>,
    relay: RelayState,
    /// This node's private trace buffer, merged canonically at barriers.
    tracer: Tracer,
    /// Earliest pending timer wake (global clock), `MAX` if none.
    next_wake: Micros,
    /// The wake time currently enqueued in the shared queue (`MAX` if
    /// none) — avoids duplicate queue entries for an unchanged wake.
    enqueued_wake: Micros,
    /// Signed clock skew: the node's local clock reads `now + skew`.
    clock_skew: i64,
    /// Down, not processing events; a restart keeps of its process only
    /// what a WAL fed its `AppendFinal` effects holds.
    crashed: bool,
    /// Window inbox, filled in key order by the sequential extract phase
    /// and consumed from the front by the node phase.
    inbox: VecDeque<InEvent>,
    /// Send intents buffered until the next sequential phase.
    outbox: Vec<Intent>,
    /// Emission counter for intent ordering, monotone per node.
    out_seq: u64,
    /// Hint of the last event that reached the process (inherited by
    /// chained wakes); a dropped duplicate leaves it alone.
    last_hint: u64,
}

/// The simulation.
pub struct Simulation {
    cfg: SimConfig,
    workers: usize,
    trace_node_budget: usize,
    cells: Vec<NodeCell>,
    keypairs: Vec<Keypair>,
    topology: Topology,
    net: Network,
    /// Pending node events; a delivery's route names its body's slot in
    /// `bodies`.
    queue: CalendarQueue,
    bodies: Bodies,
    /// Global events (workload injections, scripted faults), processed
    /// sequentially between windows.
    globals: BinaryHeap<Reverse<(Micros, u64, GlobalKind)>>,
    /// Scripted faults, indexed by queued [`GlobalKind::Fault`]s.
    faults: Vec<FaultEvent>,
    next_churn: Micros,
    churn_epoch: u64,
    verifier: Arc<PipelineVerifier>,
    adversary: Arc<Mutex<AdversaryShared>>,
    workload: Option<Workload>,
    started: bool,
    restarts: usize,
    partitions_activated: usize,
    /// The process-wide metrics registry every node publishes into.
    registry: Registry,
    /// Engine-owned tracer for hop/fault spans (sequential phases only).
    engine_tracer: Tracer,
    /// The online invariant checker (present only when `cfg.monitor`),
    /// fed the merged stream at every barrier.
    monitor: Option<InvariantMonitor>,
    /// Per-kind transmitted-byte totals, exported with the trace.
    kind_bytes: KindBytes,
    /// Counters carried over from nodes replaced by crash/restart,
    /// keyed by node id.
    carry: HashMap<usize, NodeCarry>,
    /// Engine-global canonical order counter: event hints and delivery
    /// sequence numbers, advanced only in sequential phases.
    order: u64,
    now: Micros,
    /// Canonically merged trace, in hint order.
    retained: Vec<TraceEvent>,
    retained_per_node: Vec<usize>,
    trimmed: u64,
}

/// The engine under the name it has when run on several workers.
pub type ParallelSim = Simulation;

impl Simulation {
    /// Builds the simulation: deterministic keys, equal genesis stake, a
    /// weighted gossip topology, and one node per user.
    pub fn new(cfg: impl Into<DesConfig>) -> Simulation {
        let DesConfig {
            sim: mut cfg,
            workers,
            trace_node_budget,
        } = cfg.into();
        cfg.apply_injected_bug();
        let keypairs = derive_keypairs(cfg.seed, cfg.n_users);
        let verifier = Arc::new(PipelineVerifier::new());
        let adversary = Arc::new(Mutex::new(AdversaryShared::default()));
        let registry = Registry::new();
        let new_tracer = || {
            if cfg.trace {
                Tracer::bounded(TRACE_CAP)
            } else {
                Tracer::disabled()
            }
        };
        let monitor = (cfg.monitor && cfg.trace).then(|| {
            let total_weight = cfg.n_users as u64 * cfg.stake_per_user;
            let n_honest = cfg.n_users - cfg.n_malicious;
            InvariantMonitor::new(cfg.params.monitor_config(total_weight, n_honest))
        });
        let pool_metrics = PoolMetrics::registered(&registry);
        let tracers: Vec<Tracer> = (0..cfg.n_users).map(|_| new_tracer()).collect();
        let processes =
            harness::build_processes(&cfg, &keypairs, &verifier, &adversary, &pool_metrics, |i| {
                tracers[i].clone()
            });
        let relay_metrics = RelayMetrics::registered(&registry);
        let cells = processes
            .into_iter()
            .zip(tracers)
            .enumerate()
            .map(|(id, ((process, adversary), tracer))| NodeCell {
                id,
                process,
                adversary,
                relay: RelayState::with_metrics(relay_metrics.clone()),
                tracer,
                next_wake: Micros::MAX,
                enqueued_wake: Micros::MAX,
                clock_skew: 0,
                crashed: false,
                inbox: VecDeque::new(),
                outbox: Vec::new(),
                out_seq: 0,
                last_hint: 0,
            })
            .collect();
        Simulation {
            cells,
            topology: draw_topology(&cfg, cfg.seed),
            net: Network::new(cfg.n_users),
            queue: CalendarQueue::default(),
            bodies: Bodies::default(),
            globals: BinaryHeap::new(),
            faults: Vec::new(),
            next_churn: PEER_CHURN_INTERVAL,
            churn_epoch: 0,
            verifier,
            adversary,
            workload: Workload::from_config(&cfg),
            started: false,
            restarts: 0,
            partitions_activated: 0,
            registry,
            engine_tracer: new_tracer(),
            monitor,
            kind_bytes: KindBytes::default(),
            carry: HashMap::new(),
            order: 0,
            now: 0,
            retained: Vec::new(),
            retained_per_node: vec![0; cfg.n_users],
            trimmed: 0,
            keypairs,
            workers,
            trace_node_budget,
            cfg,
        }
    }

    /// Installs a scripted fault schedule: every event runs at its exact
    /// virtual instant, interleaving deterministically with message
    /// deliveries and timer wakes. May be called before or during a run;
    /// schedules accumulate.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        let base = self.faults.len();
        let events = schedule.into_events();
        for (k, e) in events.iter().enumerate() {
            self.schedule_global(e.at, GlobalKind::Fault(base + k));
        }
        self.faults.extend(events);
    }

    /// Submits a transaction via node `node`, gossiping it to the network
    /// exactly as a user's client would (§4).
    pub fn submit_transaction(&mut self, node: usize, tx: Transaction) {
        self.submit(node, tx, self.now);
        self.flush_traces();
    }

    /// Injects an arbitrary wire message into the network at node `via`,
    /// as if an attacker-controlled peer delivered it. The receiving node
    /// processes it through the normal validation path, and the gossip
    /// relay rules decide whether it spreads.
    pub fn inject_message(&mut self, via: usize, msg: WireMessage) {
        // A self-loop `from` keeps the relay from skipping a peer.
        let slot = self.bodies.open(Body::Gossip(SimMsg::new(msg)));
        self.schedule_delivery(via, via, slot, self.now);
    }

    /// The keypair of user `i` (deterministic; useful for crafting
    /// transactions in tests and benches).
    pub fn keypair(&self, i: usize) -> &Keypair {
        &self.keypairs[i]
    }

    /// Admits `txs` directly into every node's mempool, bypassing gossip.
    ///
    /// This models a pre-agreed workload that every deployment loads
    /// identically before round 1 — the fixture the real-process harness
    /// uses to cross-check chain digests: with identical pools at every
    /// proposer, block assembly is a pure function of the chain seed.
    pub fn preload_transactions(&mut self, txs: &[Transaction]) {
        for cell in &mut self.cells {
            let node = cell.process.node_mut();
            let accounts = node.chain().accounts().clone();
            for tx in txs {
                let _ = node.pool.admit(tx.clone(), &accounts);
            }
        }
    }

    /// Starts every node at time 0.
    pub fn start(&mut self) {
        assert!(!self.started, "already started");
        self.started = true;
        for i in 0..self.cells.len() {
            let hint = self.next_order();
            let cell = &mut self.cells[i];
            cell.tracer.set_order_hint(hint);
            let effects = cell.process.start(0);
            self.dispatch_sequential(i, effects, 0, hint);
            self.reschedule_sequential(i);
        }
        if let Some(wl) = &self.workload {
            self.schedule_global(wl.interval, GlobalKind::Inject);
        }
        self.flush_traces();
    }

    /// Runs until virtual time `t_end` or until all queues drain.
    pub fn run_until(&mut self, t_end: Micros) {
        if !self.started {
            self.start();
        }
        while let Some(t) = self.next_event_time().filter(|&t| t <= t_end) {
            self.now = t;
            // §8.4: users periodically replace their gossip peers, which
            // also recovers anyone stranded in a disconnected component.
            // Between windows, so a window never straddles the change.
            while t >= self.next_churn {
                self.churn_epoch += 1;
                self.next_churn = self.next_churn.saturating_add(PEER_CHURN_INTERVAL);
                self.topology = draw_topology(&self.cfg, self.cfg.seed ^ (self.churn_epoch << 32));
            }
            // Global events at the frontier run sequentially, before any
            // node window (a fixed canonical rule on time ties).
            let next_global = self.globals.peek().map(|Reverse((at, _, _))| *at);
            if next_global == Some(t) {
                let Reverse((at, _, kind)) = self.globals.pop().expect("peeked");
                match kind {
                    GlobalKind::Inject => self.inject_next_tx(at),
                    GlobalKind::Fault(idx) => {
                        let action = self.faults[idx].action.clone();
                        self.apply_fault(action, at);
                    }
                }
                continue;
            }
            // Conservative window: no event in [T, E) can schedule
            // another event below E at a different node.
            let window_end = (t + self.net.min_delay())
                .min(next_global.unwrap_or(u64::MAX))
                .min(self.next_churn)
                .min(t_end.saturating_add(1));
            self.run_window(window_end);
        }
        self.flush_traces();
    }

    /// Runs until every honest node's chain has reached `rounds` rounds,
    /// or until `t_cap` virtual time passes (whichever comes first).
    ///
    /// Progress is judged by chain height, not per-round records: a node
    /// that re-synced via catch-up has the rounds without having measured
    /// them.
    pub fn run_rounds(&mut self, rounds: u64, t_cap: Micros) {
        if !self.started {
            self.start();
        }
        // A crashed node cannot make progress; it is not waited on.
        while !self
            .cells
            .iter()
            .all(|c| c.crashed || c.process.node().chain().tip().round >= rounds)
        {
            let Some(next) = self.next_event_time().filter(|&t| t <= t_cap) else {
                return;
            };
            // Advance in one-second slices so the completion check runs
            // periodically without scanning after every event.
            self.run_until((next + 1_000_000).min(t_cap));
        }
    }

    // --- Window machinery ----------------------------------------------------

    /// The earliest pending node or global event.
    fn next_event_time(&self) -> Option<Micros> {
        let next_global = self.globals.peek().map(|Reverse((at, _, _))| *at);
        match (self.queue.next_time(), next_global) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// One window: extract, parallel node phase, sequential barrier.
    fn run_window(&mut self, window_end: Micros) {
        // Phase 1 — extract: pop in canonical order, stamp hints, route.
        let popped = self.queue.pop_window(window_end);
        let n_events = popped.len();
        let mut touched: Vec<usize> = Vec::new();
        for (key, route) in popped {
            let hint = self.next_order();
            let (node, kind) = if key.class == CLASS_WAKE {
                // The enqueued entry just left the queue.
                self.cells[key.tiebreak as usize].enqueued_wake = Micros::MAX;
                (key.tiebreak as usize, DesEvent::Wake)
            } else {
                let (to, from, slot) = unpack_route(route);
                let kind = match self.bodies.take(slot) {
                    Body::Gossip(msg) => DesEvent::Deliver { from, msg },
                    Body::Status(tip) => DesEvent::Status { from, tip },
                };
                (to, kind)
            };
            let cell = &mut self.cells[node];
            if cell.inbox.is_empty() {
                touched.push(node);
            }
            cell.inbox.push_back(InEvent {
                hint,
                time: key.time,
                kind,
            });
        }
        if touched.is_empty() {
            return;
        }
        touched.sort_unstable();

        // Phase 2 — node phase. Work units: one per honest node; all
        // malicious nodes (the top of the index space) together, so the
        // shared coalition state mutates in canonical order.
        let n_honest = self.cfg.n_users - self.cfg.n_malicious;
        let mut lent = disjoint_mut(&mut self.cells, &touched);
        let (honest, malicious) = lent.split_at_mut(touched.partition_point(|&n| n < n_honest));
        let mut units: Vec<&mut [&mut NodeCell]> = honest.chunks_mut(1).collect();
        if !malicious.is_empty() {
            units.push(malicious);
        }
        let ctx = UnitCtx {
            window_end,
            cfg: &self.cfg,
        };
        let threads = self.workers.min(units.len());
        if threads < 2 || n_events < PARALLEL_THRESHOLD {
            for unit in units {
                process_unit(unit, &ctx);
            }
        } else {
            let work = Mutex::new(units.into_iter());
            let drain = || loop {
                let next = work
                    .lock()
                    .expect("nothing under the work-queue lock can panic")
                    .next();
                let Some(unit) = next else { break };
                process_unit(unit, &ctx);
            };
            std::thread::scope(|s| {
                for _ in 1..threads {
                    s.spawn(drain);
                }
                drain();
            });
        }

        // Phase 3 — barrier: replay intents canonically, then arm wakes
        // and merge traces.
        let mut intents: Vec<Intent> = Vec::new();
        for &n in &touched {
            intents.append(&mut self.cells[n].outbox);
        }
        // (hint, seq) is unique: hints are per-event, and a chained wake
        // sharing its trigger's hint continues the same cell's seq run.
        intents.sort_unstable_by_key(|i| (i.hint, i.seq));
        for intent in intents {
            self.replay(intent);
        }
        for &n in &touched {
            self.arm_wake(n);
            // Relay decisions are counted per cell during the node phase;
            // the shared registry hears of them here, once per window.
            self.cells[n].relay.flush_metrics();
        }
        self.flush_traces();
    }

    /// Fans one send intent out over the sender's current peers.
    fn replay(&mut self, intent: Intent) {
        let Intent {
            hint,
            time,
            from,
            kind,
            ..
        } = intent;
        if let IntentKind::SendTo { body, to } = kind {
            if let Some(arrival) = self.transmit(from, to, &body, time, hint) {
                let slot = self.bodies.open(body);
                self.schedule_delivery(to, from, slot, arrival);
            }
            return;
        }
        // Each body takes a slot at its first scheduled copy; a body no
        // copy left with (no peers, or every copy lost) takes none.
        let mut slots = [None, None];
        // By index: `transmit` needs `&mut self`, so the sender's peer list
        // is re-borrowed from the topology per hop, not held across one.
        for idx in 0..self.topology.neighbors(from).len() {
            let p = self.topology.neighbors(from)[idx];
            let (body, slot) = match &kind {
                IntentKind::Forward { body, exclude } => {
                    if Some(p) == *exclude {
                        continue;
                    }
                    (body, &mut slots[0])
                }
                IntentKind::Split { a, .. } if idx % 2 == 0 => (a, &mut slots[0]),
                IntentKind::Split { b, .. } => (b, &mut slots[1]),
                IntentKind::SendTo { .. } => unreachable!("sent above"),
            };
            if let Some(arrival) = self.transmit(from, p, body, time, hint) {
                let slot = *slot.get_or_insert_with(|| self.bodies.open(body.clone()));
                self.schedule_delivery(p, from, slot, arrival);
            }
        }
    }

    /// Serializes one transmission onto the shared network and traces the
    /// hop; the arrival time, unless the network dropped it.
    fn transmit(
        &mut self,
        from: usize,
        to: usize,
        body: &Body,
        now: Micros,
        hint: u64,
    ) -> Option<Micros> {
        let Body::Gossip(msg) = body else {
            return self.net.transmit(from, to, STATUS_SIZE, now);
        };
        // Pull-based bodies: a peer that already holds the content costs
        // only the announcement round-trip.
        let size = if msg.pull_based && self.cells[to].relay.has_seen(&msg.id) {
            ANNOUNCE_SIZE.min(msg.size)
        } else {
            msg.size
        };
        let arrival = self.net.transmit(from, to, size, now)?;
        if self.engine_tracer.is_enabled() {
            self.trace_hop(from, to, msg, size, now, arrival, hint);
        }
        Some(arrival)
    }

    /// Queues one copy of the body in `slot` under the next canonical
    /// sequence number.
    fn schedule_delivery(&mut self, to: usize, from: usize, slot: u32, at: Micros) {
        let seq = self.next_order();
        self.bodies.add_copy(slot);
        let key = OrderKey {
            time: at,
            class: CLASS_DELIVER,
            tiebreak: seq,
        };
        self.queue.schedule(key, pack_route(to, from, slot));
    }

    /// Accumulates the per-kind byte counters and records one causally
    /// stamped gossip-hop span per protocol-message transfer the
    /// critical-path walker follows: votes, priorities, and *full*
    /// block/fork bodies (an announcement-sized exchange means the
    /// receiver already held the content, so it is not a content hop).
    /// Transactions and catch-up traffic only count bytes.
    #[allow(clippy::too_many_arguments)]
    fn trace_hop(
        &mut self,
        from: usize,
        to: usize,
        msg: &Arc<SimMsg>,
        size: usize,
        now: Micros,
        arrival: Micros,
        hint: u64,
    ) {
        let total = match msg.wire.kind() {
            WireKind::Vote => &mut self.kind_bytes.vote,
            WireKind::Priority => &mut self.kind_bytes.priority,
            WireKind::Block => &mut self.kind_bytes.block,
            WireKind::ForkProposal => &mut self.kind_bytes.fork,
            WireKind::Transaction => &mut self.kind_bytes.tx,
            WireKind::CatchupRequest | WireKind::CatchupResponse => &mut self.kind_bytes.catchup,
        };
        *total += size as u64;
        if let Some((label, round)) = msg.wire.hop_label().filter(|_| size == msg.size) {
            self.engine_tracer.set_order_hint(hint);
            self.engine_tracer
                .span(SpanKind::GossipHop, to as u32, round, now)
                .label(label)
                .id(stable_id(&msg.id))
                .peer(from as u32)
                .value(size as u64)
                .end_at(arrival);
        }
    }

    /// Drains every per-node tracer plus the engine tracer, merges by
    /// hint into one canonical stream, feeds the invariant monitor the
    /// *full* stream, and retains events under the per-node budget.
    /// Hints only grow, so flushing more often never changes the stream.
    fn flush_traces(&mut self) {
        if !self.engine_tracer.is_enabled() {
            return;
        }
        let mut batch: Vec<(u64, TraceEvent)> = Vec::new();
        for cell in &self.cells {
            batch.extend(cell.tracer.drain_with_hints());
        }
        // Engine spans last: at an equal hint, the node's own events
        // precede the hops they caused (stable sort keeps source order).
        batch.extend(self.engine_tracer.drain_with_hints());
        batch.sort_by_key(|(h, _)| *h);
        if let Some(monitor) = &mut self.monitor {
            for (_, ev) in &batch {
                monitor.observe(ev);
            }
        }
        let budget = self.trace_node_budget;
        for (_, ev) in batch {
            let n = ev.node;
            if budget > 0 && n != NO_NODE {
                let count = &mut self.retained_per_node[n as usize];
                if *count >= budget {
                    self.trimmed += 1;
                    continue;
                }
                *count += 1;
            }
            self.retained.push(ev);
        }
    }

    // --- Sequential phases (start, globals, public entry points) ------------

    fn next_order(&mut self) -> u64 {
        self.order += 1;
        self.order
    }

    fn schedule_global(&mut self, at: Micros, kind: GlobalKind) {
        let seq = self.next_order();
        self.globals.push(Reverse((at, seq, kind)));
    }

    /// Immediately carries out a process's effects on the network.
    fn dispatch_sequential(&mut self, from: usize, effects: Vec<Effect>, now: Micros, hint: u64) {
        let cell = &mut self.cells[from];
        buffer_effects(cell, hint, now, effects, None);
        cell.relay.flush_metrics();
        for intent in std::mem::take(&mut cell.outbox) {
            self.replay(intent);
        }
    }

    /// Arms node `i`'s wake from its current deadline.
    fn reschedule_sequential(&mut self, i: usize) {
        reschedule_local(&mut self.cells[i], self.now);
        self.arm_wake(i);
    }

    /// Puts node `n`'s pending wake on the shared queue unless an entry
    /// at least as early is already there.
    fn arm_wake(&mut self, n: usize) {
        let cell = &mut self.cells[n];
        if cell.next_wake < cell.enqueued_wake {
            cell.enqueued_wake = cell.next_wake;
            let key = OrderKey {
                time: cell.next_wake,
                class: CLASS_WAKE,
                tiebreak: n as u64,
            };
            self.queue.schedule(key, 0);
        }
    }

    /// Hands `tx` to `node` and gossips it if the node's pool accepts
    /// it; `false` if the pool refused.
    fn submit(&mut self, node: usize, tx: Transaction, now: Micros) -> bool {
        let hint = self.next_order();
        let cell = &mut self.cells[node];
        cell.tracer.set_order_hint(hint);
        let Some(msg) = cell.process.node_mut().submit_transaction(tx) else {
            return false;
        };
        self.dispatch_sequential(node, vec![Effect::Broadcast(msg)], now, hint);
        true
    }

    /// Injects the next workload payment and schedules the one after.
    fn inject_next_tx(&mut self, now: Micros) {
        let Some(mut wl) = self.workload.take() else {
            return;
        };
        if wl.remaining > 0 {
            match wl.plan(|i| self.cells[i].crashed) {
                InjectStep::Quiet => {}
                InjectStep::Retry => self.schedule_global(now + wl.interval, GlobalKind::Inject),
                InjectStep::Pay { sender, to, amount } => {
                    let tx = wl.payment(&self.keypairs, sender, to, amount);
                    let id = tx.id();
                    // A refusal (e.g. the sender's unconfirmed nonce run
                    // hit the per-sender cap) skips this tick.
                    if self.submit(sender, tx, now) {
                        let record = TxRecord {
                            id,
                            sender,
                            submitted: now,
                        };
                        wl.commit(sender, amount, record);
                    }
                    if wl.remaining > 0 {
                        self.schedule_global(now + wl.interval, GlobalKind::Inject);
                    }
                }
            }
        }
        self.workload = Some(wl);
    }

    /// Applies one scripted fault.
    fn apply_fault(&mut self, action: FaultAction, now: Micros) {
        if self.engine_tracer.is_enabled() {
            let (label, node) = match &action {
                FaultAction::Partition(_) => ("partition", NO_NODE),
                FaultAction::Heal => ("heal", NO_NODE),
                FaultAction::Loss(_) => ("loss", NO_NODE),
                FaultAction::DelaySpike { .. } => ("delay_spike", NO_NODE),
                FaultAction::DelayClear => ("delay_clear", NO_NODE),
                FaultAction::Crash(i) => ("crash", *i as u32),
                FaultAction::Restart(i) => ("restart", *i as u32),
                FaultAction::ClockSkew { node, .. } => ("clock_skew", *node as u32),
            };
            let hint = self.next_order();
            self.engine_tracer.set_order_hint(hint);
            self.engine_tracer
                .span(SpanKind::Fault, node, 0, now)
                .label(label)
                .instant();
        }
        match action {
            FaultAction::Partition(spec) => {
                self.partitions_activated += 1;
                self.net.set_partition(Some(spec));
            }
            FaultAction::Heal => self.net.set_partition(None),
            FaultAction::Loss(prob) => self.net.set_loss_prob(prob),
            FaultAction::DelaySpike { factor, extra } => {
                self.net.set_delay_spike(Some((factor, extra)));
            }
            FaultAction::DelayClear => self.net.set_delay_spike(None),
            FaultAction::Crash(i) => self.crash_node(i),
            FaultAction::Restart(i) => self.restart_node(i, now),
            FaultAction::ClockSkew { node, skew } => {
                self.cells[node].clock_skew = skew;
                // The node's next deadline moved on the global clock.
                self.reschedule_sequential(node);
            }
        }
    }

    /// Crashes an honest node: it stops processing events, and its
    /// restart keeps only its durable state.
    fn crash_node(&mut self, i: usize) {
        let cell = &mut self.cells[i];
        debug_assert!(cell.adversary.is_none(), "chaos crashes honest nodes only");
        cell.crashed = true;
        // Pending wakes for the dead process become stale.
        cell.next_wake = Micros::MAX;
    }

    /// Restarts a crashed node from its durable state,
    /// [`Process::durable`]: what a WAL fed its process's `AppendFinal`
    /// effects holds. The node revalidates it as it would a catch-up batch, comes back with empty
    /// volatile state (fresh relay view, empty mempool), and rejoins the
    /// round loop — fetching whatever it missed while down via §8.3
    /// catch-up.
    fn restart_node(&mut self, i: usize, now: Micros) {
        let hint = self.next_order();
        let cell = &mut self.cells[i];
        if !cell.crashed {
            return;
        }
        let durable = cell.process.durable();
        // Fold the dying node's counters into the carry before its
        // process is replaced, so aggregated reports keep its pre-crash
        // history without ever double-counting it.
        self.carry.entry(i).or_default().fold_from(&cell.process);
        let genesis = self
            .cfg
            .params
            .genesis(&self.keypairs, self.cfg.stake_per_user);
        let local = harness::skewed_local(now, cell.clock_skew);
        let mut node = Node::restore(
            self.keypairs[i].clone(),
            genesis,
            self.cfg.params,
            self.verifier.clone(),
            &durable,
            local,
        );
        let pool = PoolMetrics::registered(&self.registry);
        self.cfg.fit(&mut node, cell.tracer.clone(), i, pool);
        let walled = node.chain().tip().round;
        *cell.process = Process::new(node, walled);
        // The dying relay's last counts go to the registry with it.
        cell.relay.flush_metrics();
        cell.relay = RelayState::with_metrics(RelayMetrics::registered(&self.registry));
        cell.crashed = false;
        cell.tracer.set_order_hint(hint);
        let effects = cell.process.start(local);
        self.restarts += 1;
        self.dispatch_sequential(i, effects, now, hint);
        self.reschedule_sequential(i);
    }

    // --- Results and reports -------------------------------------------------

    /// Every user's process, honest users first.
    fn processes(&self) -> Vec<&Process> {
        self.cells.iter().map(|c| &*c.process).collect()
    }

    /// The honest users' processes.
    fn honest(&self) -> Vec<&Process> {
        let n_honest = self.cfg.n_users - self.cfg.n_malicious;
        self.cells[..n_honest].iter().map(|c| &*c.process).collect()
    }

    /// The current virtual time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// The configuration this simulation runs with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The network (bytes accounting).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The shared adversary state (tests inspect recorded equivocations).
    pub fn adversary(&self) -> Arc<Mutex<AdversaryShared>> {
        self.adversary.clone()
    }

    /// Immutable access to node `i`'s protocol state (for a malicious
    /// user, the honest node its wrapper drives).
    pub fn honest_node(&self, i: usize) -> &Node {
        self.cells[i].process.node()
    }

    /// Node `i`'s chain tip round (progress probe).
    pub fn tip_round(&self, i: usize) -> u64 {
        self.honest_node(i).chain().tip().round
    }

    /// A digest of every honest node's canonical chain, for the
    /// determinism check: identical `(seed, schedule)` runs must produce
    /// identical digests, at any worker count.
    pub fn chain_digest(&self) -> [u8; 32] {
        harness::chain_digest(&self.honest())
    }

    /// Per-honest-node round records.
    pub fn honest_records(&self) -> Vec<&[RoundRecord]> {
        self.honest()
            .into_iter()
            .map(|p| p.node().records())
            .collect()
    }

    /// Per-honest-node round records *including* those a node measured
    /// before a crash/restart cycle replaced it, deduplicated by round
    /// per node (a record carried from before the crash wins over a
    /// hypothetical re-measurement after it).
    pub fn combined_records(&self) -> Vec<Vec<RoundRecord>> {
        harness::combined_records(&self.honest(), &self.carry)
    }

    /// Aggregated stats for one round.
    pub fn round_stats(&self, round: u64) -> Option<RoundStats> {
        let combined = self.combined_records();
        let views: Vec<&[RoundRecord]> = combined.iter().map(|v| v.as_slice()).collect();
        round_stats(&views, round)
    }

    /// Number of distinct vote verifications performed (CPU-cost proxy).
    pub fn unique_verifications(&self) -> usize {
        self.verifier.unique_vote_verifications()
    }

    /// Aggregated staged-pipeline counters across honest nodes plus the
    /// process-wide cache, for the metrics report.
    pub fn pipeline_report(&self) -> PipelineReport {
        harness::pipeline_report(&self.processes(), &self.carry, &self.verifier)
    }

    /// Fault-injection and recovery counters for this run.
    pub fn fault_report(&self) -> FaultReport {
        harness::fault_report(
            &self.honest(),
            &self.carry,
            &self.net,
            self.partitions_activated,
            self.restarts,
        )
    }

    /// The transactions the workload has injected so far.
    pub fn injected_txs(&self) -> Vec<TxRecord> {
        self.workload
            .as_ref()
            .map_or_else(Vec::new, |wl| wl.injected.clone())
    }

    /// End-to-end transaction metrics for the workload (if one ran).
    pub fn tx_stats(&self) -> Option<TxStats> {
        let wl = self.workload.as_ref()?;
        Some(harness::tx_stats(
            &wl.injected,
            self.honest_node(0).chain(),
            &self.combined_records(),
        ))
    }

    /// The process-wide metrics registry. Mempool counters tick into it
    /// live and gossip relay counters at every window barrier, so both
    /// are current whenever a caller holds the simulation;
    /// [`Simulation::publish_metrics`] folds in the per-run aggregates.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Publishes this run's aggregate reports onto the registry.
    ///
    /// Idempotent: gauges are overwritten and histograms replaced, so
    /// calling it again after more rounds simply refreshes the values —
    /// restarted nodes never double-count.
    pub fn publish_metrics(&self) {
        let reg = &self.registry;
        let p = self.pipeline_report();
        let f = self.fault_report();
        let records = self.combined_records();
        // Round-completion latency across all nodes and rounds, µs.
        let latencies = records.iter().flatten().map(RoundRecord::total);
        algorand_core::metrics::publish_metrics(
            reg,
            &p.stages,
            &self.verifier,
            &f.recovery,
            latencies,
        );
        reg.gauge("faults.partitions")
            .set(f.partitions_activated as i64);
        reg.gauge("faults.restarts").set(f.restarts as i64);
        reg.gauge("blocksync.requests")
            .set(f.blocksync_requests as i64);
        reg.gauge("net.total_bytes_sent")
            .set(self.net.total_bytes_sent() as i64);
        reg.gauge("trace.dropped").set(self.trace_dropped() as i64);
        if let Some(t) = self.tx_stats() {
            reg.gauge("workload.injected").set(t.injected as i64);
            reg.gauge("workload.committed").set(t.committed as i64);
        }
    }

    /// The invariant monitor's report, if [`SimConfig::monitor`] attached
    /// one to this run. The monitor is fed the canonically merged
    /// stream, so its verdicts are worker-count independent too.
    pub fn monitor_report(&self) -> Option<MonitorReport> {
        self.monitor.as_ref().map(InvariantMonitor::report)
    }

    /// Events dropped by tracer buffer caps (0 = complete stream).
    pub fn trace_dropped(&self) -> u64 {
        let per_node: u64 = self.cells.iter().map(|c| c.tracer.dropped()).sum();
        self.engine_tracer.dropped() + per_node
    }

    /// Events deliberately trimmed by the per-node retention budget.
    pub fn trace_trimmed(&self) -> u64 {
        self.trimmed
    }

    /// Number of retained (exportable) trace events.
    pub fn trace_retained(&self) -> usize {
        self.retained.len()
    }

    /// Exports the canonically merged trace as byte-stable JSONL keyed
    /// by `(seed, schedule)`, with one per-node bandwidth summary pair
    /// (uplink/downlink byte totals) appended so `trace report` can
    /// reproduce the paper's per-user bandwidth figure from the trace
    /// alone, and a `trimmed` count in the header when the per-node
    /// budget dropped events.
    pub fn export_trace(&self, schedule: &str) -> String {
        let mut events: Vec<TraceEvent> = self.retained.clone();
        let now = self.now;
        let summary = |node: u32, label: &'static str, value: u64| TraceEvent {
            kind: SpanKind::GossipHop,
            node,
            round: 0,
            step: 0,
            label: label.into(),
            start: 0,
            end: now,
            value,
            ok: true,
            id: 0,
            cause: 0,
            peer: NO_NODE,
        };
        for i in 0..self.cfg.n_users {
            events.push(summary(i as u32, "uplink_total", self.net.bytes_sent(i)));
            events.push(summary(
                i as u32,
                "downlink_total",
                self.net.bytes_received(i),
            ));
        }
        // Network-wide per-kind byte totals, in a fixed label order. The
        // counters only accumulate while tracing, so an untraced export
        // stays the plain per-node summary pairs.
        if self.engine_tracer.is_enabled() {
            for (label, bytes) in self.kind_bytes.summary() {
                events.push(summary(NO_NODE, label, bytes));
            }
        }
        write_jsonl_trimmed(
            self.cfg.seed,
            schedule,
            self.trace_dropped(),
            self.trimmed,
            &events,
        )
    }
}

/// A stake-weighted gossip topology over the whole population.
fn draw_topology(cfg: &SimConfig, seed: u64) -> Topology {
    let weights = vec![cfg.stake_per_user; cfg.n_users];
    let mut rng = Rng::seed_from_u64(seed);
    Topology::weighted(cfg.n_users, OUT_DEGREE, &weights, &mut rng)
}

/// Disjoint `&mut` loans of `cells[i]` for every `i` in the strictly
/// ascending `indices`, in time proportional to `indices.len()`.
fn disjoint_mut<'a, T>(mut rest: &'a mut [T], indices: &[usize]) -> Vec<&'a mut T> {
    let mut base = 0;
    let mut out = Vec::with_capacity(indices.len());
    for &i in indices {
        let (cell, tail) = std::mem::take(&mut rest)[i - base..]
            .split_first_mut()
            .expect("index within the slice");
        out.push(cell);
        rest = tail;
        base = i + 1;
    }
    out
}

/// What an in-flight delivery carries: a gossip message, or a STATUS
/// announcement's tip.
#[derive(Clone)]
enum Body {
    Gossip(Arc<SimMsg>),
    Status(u64),
}

/// The bodies of in-flight deliveries, one slot per message a replayed
/// intent put on the wire, however many copies of it are queued: a
/// queued copy names its slot instead of holding the `Arc`. Filled in
/// the barrier's replay; a slot is freed when its last copy is popped.
#[derive(Default)]
struct Bodies {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

/// One body slot in 16 bytes: a gossip message, or none and a STATUS tip.
#[derive(Default)]
struct Slot {
    msg: Option<Arc<SimMsg>>,
    tip: u32,
    copies: u32,
}

impl Bodies {
    /// A slot for `body`, holding no copies yet.
    fn open(&mut self, body: Body) -> u32 {
        let entry = match body {
            Body::Gossip(msg) => Slot {
                msg: Some(msg),
                ..Slot::default()
            },
            Body::Status(tip) => Slot {
                tip: u32::try_from(tip).expect("a tip round fits a slot"),
                ..Slot::default()
            },
        };
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                assert!(
                    slot <= SLOT_MASK as u32,
                    "more in-flight bodies than a route holds"
                );
                self.slots.push(entry);
                slot
            }
        }
    }

    fn add_copy(&mut self, slot: u32) {
        self.slots[slot as usize].copies += 1;
    }

    /// The body for one popped copy; the last copy frees the slot.
    fn take(&mut self, slot: u32) -> Body {
        let entry = &mut self.slots[slot as usize];
        entry.copies -= 1;
        let msg = if entry.copies > 0 {
            entry.msg.clone()
        } else {
            self.free.push(slot);
            entry.msg.take()
        };
        msg.map_or(Body::Status(u64::from(entry.tip)), Body::Gossip)
    }
}

/// A delivery's route: target and sender node ids (20 bits each) and its
/// body slot (24 bits).
const NODE_BITS: u32 = 20;
const NODE_MASK: u64 = (1 << NODE_BITS) - 1;
const SLOT_MASK: u64 = (1 << (64 - 2 * NODE_BITS)) - 1;

fn pack_route(to: usize, from: usize, slot: u32) -> u64 {
    assert!(
        (to | from) as u64 <= NODE_MASK,
        "node ids above 2^20 do not fit a route"
    );
    (to as u64) << (64 - NODE_BITS) | (from as u64) << (64 - 2 * NODE_BITS) | u64::from(slot)
}

fn unpack_route(route: u64) -> (usize, usize, u32) {
    let to = route >> (64 - NODE_BITS);
    let from = route >> (64 - 2 * NODE_BITS) & NODE_MASK;
    (to as usize, from as usize, (route & SLOT_MASK) as u32)
}

/// Read-only context shared by every work unit in one window.
struct UnitCtx<'a> {
    window_end: Micros,
    cfg: &'a SimConfig,
}

/// Processes every inbox event of one work unit's cells in canonical
/// key order, including chained wakes that land inside the window. Only
/// per-node state is touched; sends become buffered intents.
fn process_unit(unit: &mut [&mut NodeCell], ctx: &UnitCtx) {
    loop {
        // Pick the smallest (time, class, tiebreak) among every cell's
        // next inbox entry and pending in-window wake; on an exact tie
        // between an inbox wake and the cell's own pending wake (the
        // same wake, seen twice) consume the inbox entry.
        let mut best: Option<((Micros, u8, u64), usize, bool)> = None;
        for (ci, g) in unit.iter().enumerate() {
            if let Some(e) = g.inbox.front() {
                let k = (e.time, e.class(), e.tiebreak(g.id));
                if best.is_none_or(|(bk, _, bl)| k < bk || (k == bk && bl)) {
                    best = Some((k, ci, false));
                }
            }
            if !g.crashed && g.next_wake < ctx.window_end {
                let k = (g.next_wake, CLASS_WAKE, g.id as u64);
                if best.is_none_or(|(bk, _, _)| k < bk) {
                    best = Some((k, ci, true));
                }
            }
        }
        let Some((_, ci, local)) = best else { break };
        let g = &mut *unit[ci];
        if local {
            let t = g.next_wake;
            let hint = g.last_hint;
            run_wake(g, t, hint, false);
        } else {
            let e = g.inbox.pop_front().expect("chosen above");
            match e.kind {
                DesEvent::Wake => run_wake(g, e.time, e.hint, true),
                DesEvent::Deliver { from, msg } => run_deliver(g, e.time, e.hint, from, &msg, ctx),
                // Blocksync acts on a tip at the wake it may bring forward.
                DesEvent::Status { from, tip } if !g.crashed => {
                    g.last_hint = e.hint;
                    g.process.on_status(from as PeerId, tip);
                    reschedule_local(g, e.time);
                }
                DesEvent::Status { .. } => {}
            }
        }
    }
}

/// One message delivery on a node (parallel phase): the relay view
/// classifies it, the process decides the rest.
fn run_deliver(
    g: &mut NodeCell,
    time: Micros,
    hint: u64,
    from: usize,
    msg: &Arc<SimMsg>,
    ctx: &UnitCtx,
) {
    if g.crashed {
        return; // In-flight packets to a dead process.
    }
    if ctx.cfg.bug_swallows(&msg.wire) {
        return; // Planted defect: ingest drops it.
    }
    g.tracer.set_order_hint(hint);
    // Catch-up is point to point: no relay view, never forwarded.
    let may_forward = if msg.wire.is_point_to_point() {
        false
    } else {
        match g.relay.classify(msg.id, msg.relay_slot) {
            RelayDecision::Duplicate => return,
            decision => decision == RelayDecision::Relay,
        }
    };
    g.last_hint = hint;
    let now_t = harness::skewed_local(time, g.clock_skew);
    let mut effects = g
        .process
        .on_message(from as PeerId, &msg.wire, may_forward, now_t);
    // The simulator's two overrides of the process's forward decision:
    // malicious users relay everything, and the `relay_all_blocks`
    // ablation switches §6's block rule off.
    let forced = g.adversary.is_some()
        || (ctx.cfg.relay_all_blocks && matches!(msg.wire, WireMessage::Block(_)));
    let forward = Effect::Forward {
        exclude: from as PeerId,
    };
    if may_forward && forced && !matches!(effects.first(), Some(Effect::Forward { .. })) {
        effects.insert(0, forward);
    }
    buffer_effects(g, hint, time, effects, Some(msg));
    prune_relay(g, time);
    reschedule_local(g, time);
}

/// One timer wake on a node (parallel phase). `from_inbox` wakes carry
/// the staleness check; local chained wakes are exact by construction.
fn run_wake(g: &mut NodeCell, t: Micros, hint: u64, from_inbox: bool) {
    if g.crashed {
        return;
    }
    if from_inbox && g.next_wake > t {
        return; // Stale: a newer wake supersedes this entry.
    }
    g.next_wake = Micros::MAX;
    g.last_hint = hint;
    g.tracer.set_order_hint(hint);
    let local = harness::skewed_local(t, g.clock_skew);
    let effects = g.process.on_tick(local);
    buffer_effects(g, hint, t, effects, None);
    prune_relay(g, t);
    reschedule_local(g, t);
}

/// Lets the node's relay state rotate out messages two rounds old — or,
/// during a stall, older than the relay stall horizon.
fn prune_relay(g: &mut NodeCell, now: Micros) {
    let node = g.process.node();
    let horizon = node.params().relay_stall_horizon();
    g.relay.prune(node.current_round(), now, horizon);
}

/// Buffers a process's effects as send intents, to be replayed on the
/// network in the next sequential phase. `delivered` is the message a
/// [`Effect::Forward`] sends on. A message the node emits is marked seen
/// in its relay view first, so an echoed copy is not re-processed; a
/// malicious user's emissions go through its adversary as one batch.
/// `AppendFinal` needs nothing here: the process keeps the cursor, and a
/// crash reads what it covers.
fn buffer_effects(
    g: &mut NodeCell,
    hint: u64,
    time: Micros,
    effects: Vec<Effect>,
    delivered: Option<&Arc<SimMsg>>,
) {
    let mut emitted = Vec::new();
    for effect in effects {
        let kind = match effect {
            Effect::Broadcast(wire) if g.adversary.is_some() => {
                emitted.push(wire);
                continue;
            }
            Effect::Broadcast(wire) => IntentKind::Forward {
                body: originate(&mut g.relay, wire),
                exclude: None,
            },
            Effect::Forward { exclude } => IntentKind::Forward {
                body: Body::Gossip(delivered.expect("a forward follows a delivery").clone()),
                exclude: Some(exclude as usize),
            },
            Effect::SendTo(peer, wire) => IntentKind::SendTo {
                body: Body::Gossip(SimMsg::new(wire)),
                to: peer as usize,
            },
            Effect::AnnounceTip(tip) => IntentKind::Forward {
                body: Body::Status(tip),
                exclude: None,
            },
            Effect::AppendFinal(_) => continue,
        };
        push_intent(g, hint, time, kind);
    }
    let Some(adversary) = &mut g.adversary else {
        return;
    };
    for out in adversary.rewrite(emitted) {
        let kind = match out {
            Outgoing::Broadcast(wire) => IntentKind::Forward {
                body: originate(&mut g.relay, wire),
                exclude: None,
            },
            Outgoing::Split(a, b) => IntentKind::Split {
                a: originate(&mut g.relay, a),
                b: originate(&mut g.relay, b),
            },
        };
        push_intent(g, hint, time, kind);
    }
}

/// Buffers one send intent, next in the node's emission order.
fn push_intent(g: &mut NodeCell, hint: u64, time: Micros, kind: IntentKind) {
    g.outbox.push(Intent {
        hint,
        seq: g.out_seq,
        time,
        from: g.id,
        kind,
    });
    g.out_seq += 1;
}

/// A message the node itself puts on the wire, marked seen.
fn originate(relay: &mut RelayState, wire: WireMessage) -> Body {
    let msg = SimMsg::new(wire);
    relay.classify(msg.id, msg.relay_slot);
    Body::Gossip(msg)
}

/// Folds the process's next deadline into the node's pending wake (cell
/// state only; a sequential phase arms the shared queue). A deadline
/// already past — blocksync may ask at once — wakes the node at `now`.
fn reschedule_local(g: &mut NodeCell, now: Micros) {
    if g.crashed {
        // A dead process has no timers (a clock-skew fault may land on
        // one); restart arms its wake afresh.
        return;
    }
    // Deadlines are on the node's (possibly skewed) local clock; the
    // queue runs on global time.
    let d = harness::unskewed_global(g.process.next_deadline(), g.clock_skew).max(now);
    if d < g.next_wake {
        g.next_wake = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_core::catchup::encode_entry;

    #[test]
    fn a_crash_keeps_exactly_what_the_process_handed_out_as_final() {
        let mut cfg = SimConfig::new(5);
        cfg.stake_per_user = 100;
        let mut sim = Simulation::new(cfg);
        sim.run_rounds(3, 120_000_000);

        // Every final round, and nothing tentative, is what a WAL fed the
        // process's `AppendFinal` effects holds.
        let process = &sim.cells[1].process;
        let chain = process.node().chain();
        let walled = process.walled_through();
        assert!(walled >= 2, "rounds were finalized: {walled}");
        let final_prefix = (1..=chain.tip().round).take_while(|&r| chain.is_finalized(r));
        assert_eq!(walled, final_prefix.last().unwrap_or(0));
        let mut want = Vec::new();
        for r in 1..=walled {
            let (block, cert) = process.final_entry(r);
            encode_entry(block, cert, &mut want);
        }
        assert_eq!(process.durable(), want);

        // A crash and restart read exactly those rounds back, and log on
        // from there.
        let now = sim.now;
        sim.apply_fault(FaultAction::Crash(1), now);
        sim.apply_fault(FaultAction::Restart(1), now + 1);
        let process = &sim.cells[1].process;
        assert_eq!(process.node().chain().tip().round, walled);
        assert_eq!(process.walled_through(), walled);
        assert_eq!(process.durable(), want);
    }

    #[test]
    fn the_same_catchup_request_is_answered_every_time() {
        let mut cfg = SimConfig::new(5);
        cfg.stake_per_user = 100;
        let mut sim = Simulation::new(cfg);
        sim.run_rounds(2, 120_000_000);

        // A retry, or a second node lagging at the same tip, carries the
        // same bytes and so the same message id.
        let genesis = sim.cells[1].process.node().chain().block_at(0).unwrap();
        let request = SimMsg::new(WireMessage::CatchupRequest {
            have: 0,
            tip_hash: genesis.hash(),
        });
        let ctx = UnitCtx {
            window_end: Micros::MAX,
            cfg: &sim.cfg,
        };
        let g = &mut sim.cells[1];
        let before = g.outbox.len();
        for _ in 0..2 {
            run_deliver(g, sim.now, 0, 2, &request, &ctx);
        }
        let responses = g.outbox[before..]
            .iter()
            .filter(|i| match &i.kind {
                IntentKind::SendTo {
                    body: Body::Gossip(m),
                    to: 2,
                } => matches!(m.wire, WireMessage::CatchupResponse(_)),
                _ => false,
            })
            .count();
        assert_eq!(responses, 2, "one response per request");
    }

    #[test]
    fn a_body_slot_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn routes_round_trip_at_their_limits() {
        let top_node = NODE_MASK as usize;
        let top_slot = SLOT_MASK as u32;
        for (to, from, slot) in [
            (0, 0, 0),
            (top_node, 0, top_slot),
            (0, top_node, 1),
            (7, 3, 5),
        ] {
            assert_eq!(unpack_route(pack_route(to, from, slot)), (to, from, slot));
        }
        assert_eq!(pack_route(top_node, top_node, top_slot), u64::MAX);
    }
}
