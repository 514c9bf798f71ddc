//! Threaded TCP transport with configured peers and per-peer bounded
//! send queues.
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
//! Connectivity is the configured peers plus whoever dials in: a
//! maintenance thread keeps dialing every configured address that lacks
//! a live connection, forever, and the listener accepts anyone. Every
//! *outbound* connection starts with a HELLO advertising the sender's
//! listen address; an *inbound* connection becomes a **protocol peer**
//! only once that HELLO arrives (we reply with ours). Until then the
//! connection is a stranger: it gets no broadcasts, is not counted as a
//! peer, and may send nothing but its HELLO. Each side says HELLO once
//! per connection, with an address of at most [`frame::MAX_HELLO_ADDR`]
//! bytes; a second HELLO, a longer address or a frame of any kind but
//! HELLO, GOSSIP and STATUS drops the connection. Start five
//! processes, each configured with the addresses of those started before
//! it, and the deployment is a full mesh once the last one has dialled.
//!
//! Metrics live in the shared [`Registry`]: total and per-kind frame and
//! byte counters each direction, lifetime connection count, and per-peer
//! send-queue drops and depth (keyed by the peer's advertised address via
//! [`algorand_obs::labeled`]). Every frame of a kind the port accepts
//! is counted, in both directions; the runtime renders them into its
//! `metrics.txt`.

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
/// Maintenance cadence: one redial pass per tick.
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
}

/// The wire names of the kinds the port accepts, indexed by
/// `kind - HELLO`: the `kind` label of the per-kind counters.
const KIND_NAMES: [&str; 3] = ["hello", "gossip", "status"];

/// Registry-backed transport counters. Totals and the per-kind splits
/// are pre-registered at startup so the exposition line set is stable
/// from the first `metrics.txt`.
struct Metrics {
    frames_sent: Counter,
    frames_received: Counter,
    bytes_sent: Counter,
    bytes_received: Counter,
    send_drops: Counter,
    connections: Counter,
    /// Indexed by `kind - 1` for kinds HELLO..=STATUS.
    frames_sent_kind: [Counter; 3],
    bytes_sent_kind: [Counter; 3],
    frames_received_kind: [Counter; 3],
    bytes_received_kind: [Counter; 3],
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        let by_kind = |base: &str| -> [Counter; 3] {
            KIND_NAMES.map(|k| registry.counter(&labeled(base, &[("kind", k)])))
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

/// Per-kind counter index; `None` leaves a frame of an unknown kind
/// uncounted.
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
    /// sent HELLO). Strangers — inbound connections that have not said
    /// HELLO yet — get no broadcasts and don't count as peers.
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
    /// Binds `listen`, connects to `peers` (retrying forever —
    /// deployment processes start in arbitrary order), and starts the
    /// maintenance thread. Counters register into `registry`.
    ///
    /// # Errors
    ///
    /// Fails only if the listen socket cannot be bound.
    pub fn start(listen: &str, peers: &[String], registry: Registry) -> io::Result<Transport> {
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
        let peers = peers.to_vec();
        std::thread::Builder::new()
            .name("maintenance".into())
            .spawn(move || maintenance_loop(&maint_shared, &peers))?;

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

    /// Live protocol-peer count (strangers excluded).
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

/// Redials every configured peer that lacks a live connection, each tick.
fn maintenance_loop(shared: &Arc<Shared>, peers: &[String]) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(MAINTENANCE_TICK);

        let targets: Vec<String> = {
            let connected = shared.connected.lock().unwrap();
            let dialing = shared.dialing.lock().unwrap();
            peers
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
        // framed[4] is the kind byte.
        shared.metrics.count_sent(framed[4], framed.len() as u64);
    }
}

fn reader_loop(stream: TcpStream, id: PeerId, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(stream);
    let mut said_hello = false;
    loop {
        let Ok((kind, payload)) = frame::read_frame(&mut reader) else {
            return;
        };
        shared
            .metrics
            .count_received(kind, 5 + payload.len() as u64);
        // Anything beyond HELLO requires the connection to have
        // identified itself as a protocol peer. Outbound HELLO is always
        // the first frame, so this only rejects strangers.
        let is_protocol = shared
            .peers
            .lock()
            .unwrap()
            .get(&id)
            .is_some_and(|p| p.protocol);
        if !is_protocol && kind != frame::HELLO {
            return;
        }
        match kind {
            frame::HELLO => {
                // One bounded HELLO per connection: its address becomes
                // a metric label and an entry of `connected`.
                if said_hello || payload.len() > frame::MAX_HELLO_ADDR {
                    return;
                }
                said_hello = true;
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
                // A configured peer that dialled us needs no dial back.
                shared.connected.lock().unwrap().insert(addr);
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
    fn gossip_and_status_flow_over_a_mesh_of_earlier_peers() {
        // Each node is configured with the nodes started before it: a
        // with none, b with a, c with a and b. That alone is a full mesh.
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
            &[a.local_addr().to_string(), b.local_addr().to_string()],
            Registry::new(),
        )
        .unwrap();

        wait_for(
            || a.peer_count() == 2 && b.peer_count() == 2 && c.peer_count() == 2,
            "full mesh",
        );

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

    /// A raw client of `t`'s port whose reads give up after 10 s.
    fn raw_client(t: &Transport) -> TcpStream {
        let client = TcpStream::connect(t.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client
    }

    fn send(client: &mut TcpStream, kind: u8, payload: &[u8]) {
        client
            .write_all(&frame::encode_frame(kind, payload).unwrap())
            .unwrap();
    }

    /// Reads frames until the node closes the connection; returns their
    /// kinds. A read timeout fails the test: the node kept it open.
    fn kinds_until_closed(client: &TcpStream) -> Vec<u8> {
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut kinds = Vec::new();
        loop {
            match frame::read_frame(&mut reader) {
                Ok((kind, _)) => kinds.push(kind),
                Err(e) => {
                    assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::UnexpectedEof | io::ErrorKind::ConnectionReset
                        ),
                        "the node kept the connection open: {e}"
                    );
                    return kinds;
                }
            }
        }
    }

    #[test]
    fn a_long_or_repeated_hello_drops_the_connection_unlabelled() {
        let registry = Registry::new();
        let a = Transport::start("127.0.0.1:0", &[], registry.clone()).unwrap();
        let labelled = |addr: &str| {
            algorand_obs::expose::render(&registry)
                .contains(&format!("transport.send_drops{{peer=\"{addr}\"}}"))
        };

        // An address one byte over the bound is never a label.
        let long = "9".repeat(frame::MAX_HELLO_ADDR + 1);
        let mut client = raw_client(&a);
        send(&mut client, frame::HELLO, long.as_bytes());
        assert_eq!(kinds_until_closed(&client), [], "no HELLO back");
        assert!(!labelled(&long));

        // The first HELLO is answered; the second closes the connection
        // before its address is registered anywhere.
        let mut client = raw_client(&a);
        send(&mut client, frame::HELLO, b"127.0.0.1:1");
        send(&mut client, frame::HELLO, b"127.0.0.1:2");
        assert_eq!(kinds_until_closed(&client), [frame::HELLO]);
        assert!(labelled("127.0.0.1:1"));
        assert!(!labelled("127.0.0.1:2"));
        wait_for(
            || a.peer_count() == 0 && a.shared.connected.lock().unwrap().is_empty(),
            "the dropped peer to be forgotten",
        );
        a.shutdown();
    }

    #[test]
    fn strangers_may_only_say_hello_and_peers_only_the_three_kinds() {
        let a = Transport::start("127.0.0.1:0", &[], Registry::new()).unwrap();

        // GOSSIP before HELLO: dropped, never a peer, nothing delivered.
        let mut stranger = raw_client(&a);
        send(&mut stranger, frame::GOSSIP, b"payload");
        assert_eq!(a.peer_count(), 0);
        assert_eq!(kinds_until_closed(&stranger), []);
        assert_eq!(a.peer_count(), 0);
        assert!(a.recv_timeout(Duration::from_millis(200)).is_none());

        // A protocol peer that sends kind 4, the first past STATUS, is
        // dropped as for any unknown kind.
        let mut peer = raw_client(&a);
        send(&mut peer, frame::HELLO, b"127.0.0.1:1");
        wait_for(|| a.peer_count() == 1, "the HELLO to promote the peer");
        send(&mut peer, 4, &[1]);
        assert_eq!(kinds_until_closed(&peer), [frame::HELLO]);
        wait_for(|| a.peer_count() == 0, "the peer to be dropped");
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
