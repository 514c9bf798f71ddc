//! Threaded TCP transport with static peers, peer exchange, per-peer
//! bounded send queues, and first-class telemetry.
//!
//! Each connection gets a reader thread (parses [`crate::frame`] frames,
//! forwards gossip and status to the runtime over a channel) and a
//! writer thread (drains a bounded queue onto the socket). The consensus
//! loop never touches a socket: sends are `try_send` onto the queue and
//! *drop* when a peer's queue is full — a slow peer costs itself
//! messages (it can recover via blocksync) rather than stalling
//! agreement, the same pressure-shedding posture the paper's gossip
//! network takes.
//!
//! Connectivity is static peers plus gossip-learned peer exchange: every
//! *outbound* connection starts with a HELLO advertising the sender's
//! listen address; an *inbound* connection becomes a **protocol peer**
//! only once that HELLO arrives (we reply with ours). Connections that
//! never say HELLO — telemetry scrapers — are served [`frame::TELEMETRY`]
//! responses but are excluded from peer counts, broadcasts, and peer
//! exchange, so observing a node cannot change its gossip behavior.
//! Peers periodically swap known-address sets, and a maintenance thread
//! keeps dialing any known address that lacks a live connection: start
//! five processes each knowing only one other and the deployment
//! converges to full connectivity.
//!
//! Metrics live in the shared [`Registry`]: total and per-kind frame and
//! byte counters each direction, lifetime connection count, and per-peer
//! send-queue drops and depth (keyed by the peer's advertised address via
//! [`obs::labeled`]). TELEMETRY frames are excluded from every counter in
//! both directions — scraping must not perturb the numbers being
//! scraped, and `runtime`'s tests hold exposition output byte-identical
//! across two scrapes of an idle node.

use crate::frame;
use algorand_obs::{labeled, Counter, Registry};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Identifies one live connection (not a node: a reconnect gets a new id).
pub type PeerId = u64;

/// Outstanding frames a peer's send queue holds before we drop on it.
const SEND_QUEUE: usize = 1024;
/// Inbound frames buffered for the runtime before readers block (which
/// in turn backpressures the kernel socket, then the sender).
const EVENT_QUEUE: usize = 4096;
/// Maintenance cadence: redial pass every tick, peer exchange every 4th.
const MAINTENANCE_TICK: Duration = Duration::from_millis(500);

/// What the transport hands the consensus loop.
#[derive(Debug)]
pub enum TransportEvent {
    /// One encoded [`algorand_core::WireMessage`] from a peer.
    Gossip {
        /// Connection it arrived on (for reply routing and logs).
        from: PeerId,
        /// The raw wire bytes, undecoded — the runtime owns decode so
        /// failures are counted and attributed in one place.
        bytes: Vec<u8>,
    },
    /// A peer announced its finalized tip round.
    Status {
        /// Connection it arrived on.
        from: PeerId,
        /// The announced tip.
        tip: u64,
    },
    /// A telemetry scrape request ([`frame::TEL_METRICS_REQ`] or
    /// [`frame::TEL_TRACE_REQ`]); the runtime renders the body and
    /// answers via [`Transport::send_telemetry`].
    Telemetry {
        /// Connection the request arrived on.
        from: PeerId,
        /// The request op code.
        op: u8,
        /// The request body after the op byte (the drain cursor for
        /// [`frame::TEL_TRACE_REQ`]; empty otherwise).
        body: Vec<u8>,
    },
}

/// TELEMETRY requests an idle connection may burst before throttling.
pub const TELEMETRY_BURST: u64 = 32;
/// TELEMETRY tokens a connection earns back per second.
const TELEMETRY_PER_SEC: u64 = 16;

/// The reader-thread-local token bucket that rate-limits one
/// connection's TELEMETRY requests: at most [`TELEMETRY_BURST`] tokens,
/// refilled at [`TELEMETRY_PER_SEC`]. Each request consumes one token;
/// an empty bucket gets a [`frame::TEL_THROTTLED`] error frame instead
/// of service. Buckets are per connection, so a multi-chunk trace drain
/// over fresh connections is never throttled by an earlier scraper's
/// appetite. Tokens are tracked in millionths so refill math stays
/// integral.
struct TokenBucket {
    micro: u64,
    last: std::time::Instant,
}

impl TokenBucket {
    fn new() -> TokenBucket {
        TokenBucket {
            micro: TELEMETRY_BURST * 1_000_000,
            last: std::time::Instant::now(),
        }
    }

    fn try_take(&mut self) -> bool {
        let now = std::time::Instant::now();
        let refill = now.duration_since(self.last).as_micros() as u64 * TELEMETRY_PER_SEC;
        self.last = now;
        self.micro = (self.micro + refill).min(TELEMETRY_BURST * 1_000_000);
        if self.micro >= 1_000_000 {
            self.micro -= 1_000_000;
            true
        } else {
            false
        }
    }
}

/// The wire name of a metered frame kind (`None` for TELEMETRY, which
/// is deliberately unmetered, and for unknown kinds).
fn kind_name(kind: u8) -> Option<&'static str> {
    match kind {
        frame::HELLO => Some("hello"),
        frame::GOSSIP => Some("gossip"),
        frame::PEERS => Some("peers"),
        frame::STATUS => Some("status"),
        _ => None,
    }
}

/// Registry-backed transport counters. Totals and the per-kind splits
/// are pre-registered at startup so the exposition line set is stable
/// from the first scrape.
struct Metrics {
    frames_sent: Counter,
    frames_received: Counter,
    bytes_sent: Counter,
    bytes_received: Counter,
    send_drops: Counter,
    connections: Counter,
    /// Indexed by `kind - 1` for kinds HELLO..=STATUS.
    frames_sent_kind: [Counter; 4],
    bytes_sent_kind: [Counter; 4],
    frames_received_kind: [Counter; 4],
    bytes_received_kind: [Counter; 4],
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        let by_kind = |base: &str| -> [Counter; 4] {
            [frame::HELLO, frame::GOSSIP, frame::PEERS, frame::STATUS].map(|k| {
                registry.counter(&labeled(base, &[("kind", kind_name(k).expect("metered"))]))
            })
        };
        Metrics {
            frames_sent: registry.counter("transport.frames_sent"),
            frames_received: registry.counter("transport.frames_received"),
            bytes_sent: registry.counter("transport.bytes_sent"),
            bytes_received: registry.counter("transport.bytes_received"),
            send_drops: registry.counter("transport.send_drops"),
            connections: registry.counter("transport.connections"),
            frames_sent_kind: by_kind("transport.frames_sent"),
            bytes_sent_kind: by_kind("transport.bytes_sent"),
            frames_received_kind: by_kind("transport.frames_received"),
            bytes_received_kind: by_kind("transport.bytes_received"),
        }
    }

    fn count_sent(&self, kind: u8, bytes: u64) {
        let Some(i) = metered_index(kind) else { return };
        self.frames_sent.inc();
        self.bytes_sent.add(bytes);
        self.frames_sent_kind[i].inc();
        self.bytes_sent_kind[i].add(bytes);
    }

    fn count_received(&self, kind: u8, bytes: u64) {
        let Some(i) = metered_index(kind) else { return };
        self.frames_received.inc();
        self.bytes_received.add(bytes);
        self.frames_received_kind[i].inc();
        self.bytes_received_kind[i].add(bytes);
    }
}

/// Per-kind counter index for metered kinds; `None` leaves the frame
/// uncounted (TELEMETRY, unknown).
fn metered_index(kind: u8) -> Option<usize> {
    (frame::HELLO..=frame::STATUS)
        .contains(&kind)
        .then(|| (kind - frame::HELLO) as usize)
}

struct Peer {
    queue: SyncSender<Arc<Vec<u8>>>,
    /// Clone of the socket so [`Transport::shutdown`] can unblock the
    /// reader thread.
    stream: TcpStream,
    /// The peer's advertised listen address, once known (at dial time
    /// for outbound, at HELLO for inbound).
    addr: Option<String>,
    /// Whether this connection spoke the peer protocol (sent or will be
    /// sent HELLO). Non-protocol connections — telemetry scrapers — get
    /// no broadcasts and don't count as peers.
    protocol: bool,
    /// Frames enqueued but not yet written (send-queue occupancy).
    depth: Arc<AtomicI64>,
    /// Per-peer send-queue drop counter, registered once the advertised
    /// address is known.
    drops: Option<Counter>,
}

struct Shared {
    advertised: String,
    registry: Registry,
    metrics: Metrics,
    peers: Mutex<HashMap<PeerId, Peer>>,
    /// Dialable listen addresses learned from config or peer exchange.
    known: Mutex<HashSet<String>>,
    /// Addresses with a dial attempt in flight.
    dialing: Mutex<HashSet<String>>,
    /// Advertised addresses with a live connection.
    connected: Mutex<HashSet<String>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    events: SyncSender<TransportEvent>,
}

/// The node's TCP fabric. Dropping it does *not* stop the threads; call
/// [`Transport::shutdown`].
pub struct Transport {
    shared: Arc<Shared>,
    events: Receiver<TransportEvent>,
    local_addr: String,
}

impl Transport {
    /// Binds `listen`, connects to `static_peers` (retrying forever —
    /// deployment processes start in arbitrary order), and starts the
    /// maintenance thread. Counters register into `registry`.
    ///
    /// # Errors
    ///
    /// Fails only if the listen socket cannot be bound.
    pub fn start(
        listen: &str,
        static_peers: &[String],
        registry: Registry,
    ) -> io::Result<Transport> {
        let listener = TcpListener::bind(listen)?;
        let local_addr = listener.local_addr()?.to_string();
        // What peers should dial back: the configured string, unless it
        // asked for an ephemeral port, in which case the resolved one.
        let advertised = if listen.ends_with(":0") {
            local_addr.clone()
        } else {
            listen.to_string()
        };
        let (events_tx, events_rx) = mpsc::sync_channel(EVENT_QUEUE);
        let metrics = Metrics::new(&registry);
        let shared = Arc::new(Shared {
            advertised,
            registry,
            metrics,
            peers: Mutex::new(HashMap::new()),
            known: Mutex::new(static_peers.iter().cloned().collect()),
            dialing: Mutex::new(HashSet::new()),
            connected: Mutex::new(HashSet::new()),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            events: events_tx,
        });

        let accept_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;

        let maint_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("maintenance".into())
            .spawn(move || maintenance_loop(&maint_shared))?;

        Ok(Transport {
            shared,
            events: events_rx,
            local_addr,
        })
    }

    /// The bound listen address (resolved, e.g. with a real port for `:0`).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Waits up to `timeout` for the next inbound event.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<TransportEvent> {
        self.events.recv_timeout(timeout).ok()
    }

    /// Queues a gossip frame to every live protocol peer except
    /// `except`. Returns how many peers it was queued to.
    pub fn broadcast_gossip(&self, wire_bytes: &[u8], except: Option<PeerId>) -> usize {
        self.broadcast_frame(frame::GOSSIP, wire_bytes, except)
    }

    /// Queues a gossip frame to one peer (reply routing: catch-up
    /// responses go only to the requester).
    pub fn send_gossip_to(&self, peer: PeerId, wire_bytes: &[u8]) -> bool {
        let Ok(framed) = frame::encode_frame(frame::GOSSIP, wire_bytes) else {
            return false;
        };
        let framed = Arc::new(framed);
        let peers = self.shared.peers.lock().unwrap();
        peers
            .get(&peer)
            .is_some_and(|p| enqueue(&self.shared, p, &framed))
    }

    /// Queues a telemetry frame (`op` byte + `body`) to one connection —
    /// protocol peer or scraper alike. Unmetered: drops are not counted
    /// and no counter moves, so serving a scrape never perturbs metrics.
    pub fn send_telemetry(&self, peer: PeerId, op: u8, body: &[u8]) -> bool {
        send_telemetry_frame(&self.shared, peer, op, body)
    }

    /// Announces our finalized tip to every protocol peer.
    pub fn broadcast_status(&self, tip: u64) -> usize {
        self.broadcast_frame(frame::STATUS, &frame::encode_status(tip), None)
    }

    fn broadcast_frame(&self, kind: u8, payload: &[u8], except: Option<PeerId>) -> usize {
        let Ok(framed) = frame::encode_frame(kind, payload) else {
            return 0;
        };
        let framed = Arc::new(framed);
        let peers = self.shared.peers.lock().unwrap();
        let mut queued = 0;
        for (&id, peer) in peers.iter() {
            if Some(id) == except || !peer.protocol {
                continue;
            }
            if enqueue(&self.shared, peer, &framed) {
                queued += 1;
            }
        }
        queued
    }

    /// Live protocol-peer count (telemetry scrapers excluded).
    pub fn peer_count(&self) -> usize {
        self.shared
            .peers
            .lock()
            .unwrap()
            .values()
            .filter(|p| p.protocol)
            .count()
    }

    /// Publishes point-in-time transport gauges into the registry:
    /// `transport.peers` and per-peer `transport.send_queue_depth`.
    pub fn publish(&self) {
        let peers = self.shared.peers.lock().unwrap();
        let mut count = 0i64;
        for p in peers.values() {
            if !p.protocol {
                continue;
            }
            count += 1;
            if let Some(addr) = &p.addr {
                self.shared
                    .registry
                    .gauge(&labeled("transport.send_queue_depth", &[("peer", addr)]))
                    .set(p.depth.load(Ordering::Relaxed));
            }
        }
        self.shared.registry.gauge("transport.peers").set(count);
    }

    /// The deepest current send-queue occupancy across protocol peers:
    /// the "queue depth at send" the trace plane stamps onto outbound
    /// hop events, so a merged critical path can show how backed up the
    /// sender was when a frame was queued.
    pub fn max_send_queue_depth(&self) -> u64 {
        let peers = self.shared.peers.lock().unwrap();
        peers
            .values()
            .filter(|p| p.protocol)
            .map(|p| p.depth.load(Ordering::Relaxed).max(0) as u64)
            .max()
            .unwrap_or(0)
    }

    /// Stops accepting, closes every connection, and unblocks all
    /// transport threads so they exit.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocked accept() with a throwaway connection.
        let _ = TcpStream::connect(&self.local_addr);
        let peers = self.shared.peers.lock().unwrap();
        for peer in peers.values() {
            let _ = peer.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Queues a telemetry frame (`op` byte + `body`) to one connection —
/// protocol peer or scraper alike. Unmetered: drops are not counted and
/// no counter moves, so serving a scrape never perturbs metrics.
fn send_telemetry_frame(shared: &Shared, peer: PeerId, op: u8, body: &[u8]) -> bool {
    let mut payload = Vec::with_capacity(1 + body.len());
    payload.push(op);
    payload.extend_from_slice(body);
    let Ok(framed) = frame::encode_frame(frame::TELEMETRY, &payload) else {
        return false;
    };
    let peers = shared.peers.lock().unwrap();
    let Some(p) = peers.get(&peer) else {
        return false;
    };
    if p.queue.try_send(Arc::new(framed)).is_ok() {
        p.depth.fetch_add(1, Ordering::Relaxed);
        true
    } else {
        false
    }
}

fn enqueue(shared: &Shared, peer: &Peer, framed: &Arc<Vec<u8>>) -> bool {
    match peer.queue.try_send(Arc::clone(framed)) {
        Ok(()) => {
            peer.depth.fetch_add(1, Ordering::Relaxed);
            true
        }
        Err(TrySendError::Full(_)) => {
            shared.metrics.send_drops.inc();
            if let Some(drops) = &peer.drops {
                drops.inc();
            }
            false
        }
        Err(TrySendError::Disconnected(_)) => false,
    }
}

/// The per-peer drop counter for an advertised address.
fn drop_counter(shared: &Shared, addr: &str) -> Counter {
    shared
        .registry
        .counter(&labeled("transport.send_drops", &[("peer", addr)]))
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let conn = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Ok((stream, _)) = conn {
            spawn_connection(stream, Arc::clone(shared), None);
        }
    }
}

/// Redials missing peers every tick and runs peer exchange every fourth.
fn maintenance_loop(shared: &Arc<Shared>) {
    let mut tick = 0u64;
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(MAINTENANCE_TICK);
        tick += 1;

        let targets: Vec<String> = {
            let known = shared.known.lock().unwrap();
            let connected = shared.connected.lock().unwrap();
            let dialing = shared.dialing.lock().unwrap();
            known
                .iter()
                .filter(|a| {
                    **a != shared.advertised && !connected.contains(*a) && !dialing.contains(*a)
                })
                .cloned()
                .collect()
        };
        for addr in targets {
            shared.dialing.lock().unwrap().insert(addr.clone());
            let dial_shared = Arc::clone(shared);
            let _ = std::thread::Builder::new()
                .name(format!("dial-{addr}"))
                .spawn(move || {
                    let result = TcpStream::connect(&addr);
                    dial_shared.dialing.lock().unwrap().remove(&addr);
                    if let Ok(stream) = result {
                        spawn_connection(stream, dial_shared, Some(addr));
                    }
                });
        }

        if tick.is_multiple_of(4) {
            let mut addrs: Vec<String> = {
                let known = shared.known.lock().unwrap();
                known.iter().cloned().collect()
            };
            addrs.push(shared.advertised.clone());
            addrs.sort();
            addrs.dedup();
            let payload = frame::encode_peers(&addrs);
            if let Ok(framed) = frame::encode_frame(frame::PEERS, &payload) {
                let framed = Arc::new(framed);
                let peers = shared.peers.lock().unwrap();
                for peer in peers.values().filter(|p| p.protocol) {
                    enqueue(shared, peer, &framed);
                }
            }
        }
    }
}

/// Registers the connection and starts its reader and writer threads.
/// Outbound connections (`remote_addr` known) are protocol peers from
/// the start and lead with HELLO; inbound ones start non-protocol and
/// are promoted when their HELLO arrives.
fn spawn_connection(stream: TcpStream, shared: Arc<Shared>, remote_addr: Option<String>) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let outbound = remote_addr.is_some();
    let (queue_tx, queue_rx) = mpsc::sync_channel::<Arc<Vec<u8>>>(SEND_QUEUE);
    let depth = Arc::new(AtomicI64::new(0));
    if let Some(addr) = &remote_addr {
        shared.connected.lock().unwrap().insert(addr.clone());
    }

    // Outbound leads with HELLO, queued *before* the peer is visible to
    // broadcasts so it is guaranteed to be the first frame on the wire —
    // the accepting side keys protocol promotion on it.
    if outbound {
        shared.metrics.connections.inc();
        if let Ok(hello) = frame::encode_frame(frame::HELLO, shared.advertised.as_bytes()) {
            if queue_tx.try_send(Arc::new(hello)).is_ok() {
                depth.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    {
        let Ok(shutdown_half) = stream.try_clone() else {
            return;
        };
        let drops = remote_addr.as_deref().map(|a| drop_counter(&shared, a));
        let mut peers = shared.peers.lock().unwrap();
        peers.insert(
            id,
            Peer {
                queue: queue_tx.clone(),
                stream: shutdown_half,
                addr: remote_addr.clone(),
                protocol: outbound,
                depth: Arc::clone(&depth),
                drops,
            },
        );
    }

    let writer_shared = Arc::clone(&shared);
    let writer_depth = Arc::clone(&depth);
    let _ = std::thread::Builder::new()
        .name(format!("writer-{id}"))
        .spawn(move || writer_loop(write_half, &queue_rx, &writer_shared, &writer_depth));

    let reader_shared = Arc::clone(&shared);
    let _ = std::thread::Builder::new()
        .name(format!("reader-{id}"))
        .spawn(move || {
            reader_loop(stream, id, &reader_shared);
            // Reader exit means the connection is dead: deregister.
            let removed = reader_shared.peers.lock().unwrap().remove(&id);
            if let Some(addr) = removed.and_then(|p| p.addr) {
                reader_shared.connected.lock().unwrap().remove(&addr);
            }
        });
}

fn writer_loop(
    mut stream: TcpStream,
    queue: &Receiver<Arc<Vec<u8>>>,
    shared: &Shared,
    depth: &AtomicI64,
) {
    while let Ok(framed) = queue.recv() {
        if stream.write_all(&framed).is_err() {
            return;
        }
        depth.fetch_sub(1, Ordering::Relaxed);
        // framed[4] is the kind byte; TELEMETRY stays uncounted.
        shared.metrics.count_sent(framed[4], framed.len() as u64);
    }
}

fn reader_loop(stream: TcpStream, id: PeerId, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(stream);
    let mut bucket = TokenBucket::new();
    loop {
        let Ok((kind, payload)) = frame::read_frame(&mut reader) else {
            return;
        };
        shared
            .metrics
            .count_received(kind, 5 + payload.len() as u64);
        // Anything beyond HELLO and TELEMETRY requires the connection to
        // have identified itself as a protocol peer. Outbound HELLO is
        // always the first frame, so this only rejects strangers.
        let is_protocol = shared
            .peers
            .lock()
            .unwrap()
            .get(&id)
            .is_some_and(|p| p.protocol);
        if !is_protocol && kind != frame::HELLO && kind != frame::TELEMETRY {
            return;
        }
        match kind {
            frame::HELLO => {
                let Ok(addr) = String::from_utf8(payload) else {
                    return;
                };
                let mut promoted = false;
                if let Some(peer) = shared.peers.lock().unwrap().get_mut(&id) {
                    peer.addr = Some(addr.clone());
                    if peer.drops.is_none() {
                        peer.drops = Some(drop_counter(shared, &addr));
                    }
                    if !peer.protocol {
                        peer.protocol = true;
                        promoted = true;
                        // Reply with our HELLO so the dialer learns our
                        // advertised address (and symmetric promotion
                        // holds for simultaneous dials).
                        if let Ok(hello) =
                            frame::encode_frame(frame::HELLO, shared.advertised.as_bytes())
                        {
                            if peer.queue.try_send(Arc::new(hello)).is_ok() {
                                peer.depth.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
                if promoted {
                    shared.metrics.connections.inc();
                }
                shared.connected.lock().unwrap().insert(addr.clone());
                if addr != shared.advertised {
                    shared.known.lock().unwrap().insert(addr);
                }
            }
            frame::PEERS => {
                let Some(addrs) = frame::decode_peers(&payload) else {
                    return; // Malformed peer exchange: drop the peer.
                };
                let mut known = shared.known.lock().unwrap();
                for addr in addrs {
                    if addr != shared.advertised {
                        known.insert(addr);
                    }
                }
                // The maintenance loop dials anything new next tick.
            }
            frame::GOSSIP => {
                // Blocking send: a full runtime queue backpressures this
                // connection (and, via TCP, its sender) instead of
                // ballooning memory.
                if shared
                    .events
                    .send(TransportEvent::Gossip {
                        from: id,
                        bytes: payload,
                    })
                    .is_err()
                {
                    return;
                }
            }
            frame::STATUS => {
                let Some(tip) = frame::decode_status(&payload) else {
                    return; // Malformed status: drop the peer.
                };
                if shared
                    .events
                    .send(TransportEvent::Status { from: id, tip })
                    .is_err()
                {
                    return;
                }
            }
            frame::TELEMETRY => {
                let Some(&op) = payload.first() else {
                    return;
                };
                if op != frame::TEL_METRICS_REQ && op != frame::TEL_TRACE_REQ {
                    return; // We serve scrapes; we never accept responses.
                }
                // Rate limit per connection: an over-budget request is
                // answered with a throttled error frame and *not*
                // forwarded; the connection stays up and earns tokens
                // back at the refill rate.
                if !bucket.try_take() {
                    send_telemetry_frame(shared, id, frame::TEL_THROTTLED, &[]);
                    continue;
                }
                if shared
                    .events
                    .send(TransportEvent::Telemetry {
                        from: id,
                        op,
                        body: payload[1..].to_vec(),
                    })
                    .is_err()
                {
                    return;
                }
            }
            _ => return, // Unknown frame kind: drop the peer.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
        for _ in 0..200 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn gossip_status_and_peer_exchange_flow() {
        // a knows b; c knows only b. Peer exchange must connect a and c.
        let reg_a = Registry::new();
        let a = Transport::start("127.0.0.1:0", &[], reg_a.clone()).unwrap();
        let b = Transport::start(
            "127.0.0.1:0",
            &[a.local_addr().to_string()],
            Registry::new(),
        )
        .unwrap();
        let c = Transport::start(
            "127.0.0.1:0",
            &[b.local_addr().to_string()],
            Registry::new(),
        )
        .unwrap();

        wait_for(|| a.peer_count() >= 2 && c.peer_count() >= 2, "full mesh");

        // Gossip from a reaches both b and c.
        assert!(a.broadcast_gossip(b"payload-one", None) >= 2);
        for (name, t) in [("b", &b), ("c", &c)] {
            let got = loop {
                match t.recv_timeout(Duration::from_secs(5)) {
                    Some(TransportEvent::Gossip { bytes, .. }) => break bytes,
                    Some(_) => continue,
                    None => panic!("no gossip at {name}"),
                }
            };
            assert_eq!(got, b"payload-one");
        }

        // Status frames carry the tip.
        assert!(b.broadcast_status(41) >= 2);
        let got = loop {
            match a.recv_timeout(Duration::from_secs(5)) {
                Some(TransportEvent::Status { tip, .. }) => break tip,
                Some(_) => continue,
                None => panic!("no status at a"),
            }
        };
        assert_eq!(got, 41);
        assert!(reg_a.counter("transport.frames_received").get() > 0);

        a.shutdown();
        b.shutdown();
        c.shutdown();
    }

    #[test]
    fn reply_goes_only_to_sender() {
        let a = Transport::start("127.0.0.1:0", &[], Registry::new()).unwrap();
        let b = Transport::start(
            "127.0.0.1:0",
            &[a.local_addr().to_string()],
            Registry::new(),
        )
        .unwrap();
        wait_for(|| a.peer_count() >= 1 && b.peer_count() >= 1, "a-b link");

        b.broadcast_gossip(b"request", None);
        let from = loop {
            match a.recv_timeout(Duration::from_secs(5)) {
                Some(TransportEvent::Gossip { from, bytes }) => {
                    assert_eq!(bytes, b"request");
                    break from;
                }
                Some(_) => continue,
                None => panic!("request not delivered"),
            }
        };
        assert!(a.send_gossip_to(from, b"response"));
        let got = loop {
            match b.recv_timeout(Duration::from_secs(5)) {
                Some(TransportEvent::Gossip { bytes, .. }) => break bytes,
                Some(_) => continue,
                None => panic!("response not delivered"),
            }
        };
        assert_eq!(got, b"response");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn scraper_connection_is_served_but_is_not_a_peer() {
        let registry = Registry::new();
        let a = Transport::start("127.0.0.1:0", &[], registry.clone()).unwrap();

        // A raw client that never says HELLO: a telemetry scraper.
        let mut client = TcpStream::connect(a.local_addr()).unwrap();
        client
            .write_all(&frame::encode_frame(frame::TELEMETRY, &[frame::TEL_METRICS_REQ]).unwrap())
            .unwrap();

        // The runtime-side event arrives; answer it.
        let (from, op) = loop {
            match a.recv_timeout(Duration::from_secs(5)) {
                Some(TransportEvent::Telemetry { from, op, .. }) => break (from, op),
                Some(_) => continue,
                None => panic!("no telemetry request"),
            }
        };
        assert_eq!(op, frame::TEL_METRICS_REQ);
        assert!(a.send_telemetry(from, frame::TEL_METRICS_RESP, b"x 1\n"));

        let mut reader = BufReader::new(client.try_clone().unwrap());
        let (kind, payload) = frame::read_frame(&mut reader).unwrap();
        assert_eq!(kind, frame::TELEMETRY);
        assert_eq!(payload[0], frame::TEL_METRICS_RESP);
        assert_eq!(&payload[1..], b"x 1\n");

        // The scraper is not a protocol peer: no peer count, no
        // broadcasts reach it, no counters moved.
        assert_eq!(a.peer_count(), 0);
        assert_eq!(a.broadcast_status(1), 0);
        let count = |name: &str| registry.counter(name).get();
        assert_eq!(count("transport.frames_sent"), 0, "telemetry is unmetered");
        assert_eq!(
            count("transport.frames_received"),
            0,
            "telemetry is unmetered"
        );
        assert_eq!(
            count("transport.connections"),
            0,
            "scraper is not a connection"
        );

        a.shutdown();
    }

    #[test]
    fn over_limit_scrapes_get_throttled_error_frames() {
        let a = Transport::start("127.0.0.1:0", &[], Registry::new()).unwrap();

        // Answer every forwarded request so the client can count
        // replies; the transport itself answers throttled ones.
        let mut client = TcpStream::connect(a.local_addr()).unwrap();
        const REQUESTS: usize = 2 * TELEMETRY_BURST as usize;
        let request = frame::encode_frame(frame::TELEMETRY, &[frame::TEL_METRICS_REQ]).unwrap();
        client.write_all(&request.repeat(REQUESTS)).unwrap();
        let mut forwarded = 0;
        while let Some(ev) = a.recv_timeout(Duration::from_millis(800)) {
            if let TransportEvent::Telemetry { from, .. } = ev {
                assert!(a.send_telemetry(from, frame::TEL_METRICS_RESP, b"x 1\n"));
                forwarded += 1;
            }
        }
        assert!(
            forwarded < REQUESTS,
            "a burst of {REQUESTS} must not all pass a burst-{TELEMETRY_BURST} bucket"
        );
        assert!(
            forwarded >= TELEMETRY_BURST as usize,
            "the burst allowance must be served"
        );

        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut throttled = 0;
        let mut metrics = 0;
        for _ in 0..REQUESTS {
            let (kind, payload) = frame::read_frame(&mut reader).unwrap();
            assert_eq!(kind, frame::TELEMETRY);
            match payload[0] {
                frame::TEL_THROTTLED => throttled += 1,
                frame::TEL_METRICS_RESP => metrics += 1,
                other => panic!("unexpected telemetry op {other}"),
            }
        }
        assert_eq!(metrics, forwarded);
        assert_eq!(throttled, REQUESTS - forwarded);
        assert!(throttled >= 1);

        // A fresh connection has its own bucket: it is served at once.
        let mut fresh = TcpStream::connect(a.local_addr()).unwrap();
        fresh.write_all(&request).unwrap();
        match a.recv_timeout(Duration::from_secs(5)) {
            Some(TransportEvent::Telemetry { from, .. }) => {
                assert!(a.send_telemetry(from, frame::TEL_METRICS_RESP, b"x 1\n"));
            }
            other => panic!("the fresh connection's request was not forwarded: {other:?}"),
        }
        let (kind, payload) = frame::read_frame(&mut BufReader::new(fresh)).unwrap();
        assert_eq!(
            (kind, payload[0]),
            (frame::TELEMETRY, frame::TEL_METRICS_RESP)
        );
        a.shutdown();
    }

    #[test]
    fn per_peer_drop_counters_surface_by_address() {
        let reg_a = Registry::new();
        let a = Transport::start("127.0.0.1:0", &[], reg_a.clone()).unwrap();
        let b = Transport::start(
            "127.0.0.1:0",
            &[a.local_addr().to_string()],
            Registry::new(),
        )
        .unwrap();
        wait_for(|| a.peer_count() >= 1 && b.peer_count() >= 1, "a-b link");

        a.publish();
        let exposed = algorand_obs::expose::render(&reg_a);
        assert!(exposed.contains("transport.peers 1"), "{exposed}");
        assert!(
            exposed.contains(&format!(
                "transport.send_drops{{peer=\"{}\"}} 0",
                b.local_addr()
            )),
            "one protocol peer, by its advertised address: {exposed}"
        );
        assert!(
            exposed.contains("transport.send_queue_depth{peer="),
            "{exposed}"
        );
        a.shutdown();
        b.shutdown();
    }
}
