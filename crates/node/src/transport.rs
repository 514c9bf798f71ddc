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
//! The transport's one piece of state is its connection table. A
//! connection is a **protocol peer** exactly when its address is known.
//! An *outbound* connection knows it from the start: the configured
//! string it dialled, which nothing replaces. An *inbound* connection
//! learns it from its HELLO, the dialer's listen address in at most
//! [`frame::MAX_HELLO_ADDR`] bytes, which must be the connection's first
//! frame. Until then the connection is a stranger: it gets no
//! broadcasts, is not counted as a peer, and may send nothing but that
//! HELLO. HELLO is one-way — the accepting side never answers it — so a
//! HELLO anywhere else, a longer address or a frame of any kind but
//! HELLO, GOSSIP and STATUS drops the connection.
//!
//! A maintenance thread dials, each tick and inline, every configured
//! address that no connection in the table is known by; the listener
//! accepts anyone. Start five processes, each configured with the
//! addresses of those started before it, and the deployment is a full
//! mesh once the last one has dialled.
//!
//! Metrics live in the shared [`Registry`]: total and per-kind frame and
//! byte counters each direction, the lifetime connection count, total
//! send-queue drops, and the two gauges [`Transport::publish`] sets: the
//! peer count and the deepest peer send queue. No series is keyed by a
//! peer, so the exposition does not grow with the addresses that say
//! HELLO. Every frame of a kind the port accepts is counted, in both
//! directions; the runtime renders them into its `metrics.txt`.

use crate::frame;
use algorand_obs::{labeled, Counter, Gauge, Registry};
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
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
/// Maintenance cadence: one redial pass per tick, and the longest a
/// single dial may take.
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

/// Registry-backed transport metrics. Every series is pre-registered at
/// startup so the exposition line set is stable from the first
/// `metrics.txt`.
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
    peers: Gauge,
    send_queue_depth: Gauge,
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
            peers: registry.gauge("transport.peers"),
            send_queue_depth: registry.gauge("transport.send_queue_depth"),
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

/// One live connection.
struct Peer {
    queue: SyncSender<Arc<Vec<u8>>>,
    /// Clone of the socket so [`Transport::shutdown`] can unblock the
    /// reader thread.
    stream: TcpStream,
    /// The peer's listen address: the configured string an outbound
    /// connection dialled, or the one an inbound connection's HELLO
    /// named. `None` is a stranger, which gets no broadcasts and does
    /// not count as a peer.
    addr: Option<String>,
    /// Frames enqueued but not yet written (send-queue occupancy).
    depth: Arc<AtomicI64>,
}

impl Peer {
    fn is_protocol(&self) -> bool {
        self.addr.is_some()
    }
}

struct Shared {
    advertised: String,
    metrics: Metrics,
    /// Every live connection, strangers included.
    peers: Mutex<HashMap<PeerId, Peer>>,
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
        let shared = Arc::new(Shared {
            advertised,
            metrics: Metrics::new(&registry),
            peers: Mutex::new(HashMap::new()),
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
            if Some(id) == except || !peer.is_protocol() {
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
            .filter(|p| p.is_protocol())
            .count()
    }

    /// Publishes the point-in-time transport gauges into the registry:
    /// `transport.peers` and `transport.send_queue_depth`, the value
    /// [`Transport::max_send_queue_depth`] returns.
    pub fn publish(&self) {
        let metrics = &self.shared.metrics;
        metrics.peers.set(self.peer_count() as i64);
        metrics
            .send_queue_depth
            .set(self.max_send_queue_depth() as i64);
    }

    /// The deepest current send-queue occupancy across protocol peers:
    /// the "queue depth at send" the trace plane stamps onto outbound
    /// hop events, so a merged critical path can show how backed up the
    /// sender was when a frame was queued.
    pub fn max_send_queue_depth(&self) -> u64 {
        let peers = self.shared.peers.lock().unwrap();
        peers
            .values()
            .filter(|p| p.is_protocol())
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
            false
        }
        Err(TrySendError::Disconnected(_)) => false,
    }
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

/// Each tick, dials in turn every configured address that no live
/// connection is known by (our own excepted), each dial bounded by the
/// tick.
fn maintenance_loop(shared: &Arc<Shared>, peers: &[String]) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(MAINTENANCE_TICK);
        for addr in peers.iter().filter(|a| **a != shared.advertised) {
            let known = shared
                .peers
                .lock()
                .unwrap()
                .values()
                .any(|p| p.addr.as_ref() == Some(addr));
            if known {
                continue;
            }
            if let Some(stream) = dial(addr) {
                spawn_connection(stream, Arc::clone(shared), Some(addr.clone()));
            }
        }
    }
}

/// Connects to the first of `addr`'s resolved socket addresses that
/// accepts within [`MAINTENANCE_TICK`].
fn dial(addr: &str) -> Option<TcpStream> {
    addr.to_socket_addrs()
        .ok()?
        .find_map(|a| TcpStream::connect_timeout(&a, MAINTENANCE_TICK).ok())
}

/// Enters the connection into the table and starts its writer and
/// reader threads. An outbound connection (`addr` is the configured
/// string it dialled) is a protocol peer from the start and leads with
/// HELLO; an inbound one is a stranger until its HELLO names it.
fn spawn_connection(stream: TcpStream, shared: Arc<Shared>, addr: Option<String>) {
    let _ = stream.set_nodelay(true);
    let (Ok(write_half), Ok(shutdown_half)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let (queue, queue_rx) = mpsc::sync_channel::<Arc<Vec<u8>>>(SEND_QUEUE);
    let peer = Peer {
        queue,
        stream: shutdown_half,
        addr,
        depth: Arc::new(AtomicI64::new(0)),
    };
    let outbound = peer.is_protocol();
    // Outbound leads with HELLO, queued *before* the peer is visible to
    // broadcasts so it is guaranteed to be the first frame on the wire.
    if outbound {
        shared.metrics.connections.inc();
        if let Ok(hello) = frame::encode_frame(frame::HELLO, shared.advertised.as_bytes()) {
            enqueue(&shared, &peer, &Arc::new(hello));
        }
    }
    let depth = Arc::clone(&peer.depth);
    shared.peers.lock().unwrap().insert(id, peer);

    let writer_shared = Arc::clone(&shared);
    let _ = std::thread::Builder::new()
        .name(format!("writer-{id}"))
        .spawn(move || writer_loop(write_half, &queue_rx, &writer_shared, &depth));

    let _ = std::thread::Builder::new()
        .name(format!("reader-{id}"))
        .spawn(move || {
            reader_loop(stream, id, outbound, &shared);
            // Reader exit means the connection is dead: deregister.
            shared.peers.lock().unwrap().remove(&id);
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

/// Reads frames until the connection ends or breaks a rule. `protocol`
/// is the connection's own view of whether its address is known: true
/// from the start for outbound, set by an inbound connection's HELLO.
fn reader_loop(stream: TcpStream, id: PeerId, mut protocol: bool, shared: &Shared) {
    let mut reader = BufReader::new(stream);
    loop {
        let Ok((kind, payload)) = frame::read_frame(&mut reader) else {
            return;
        };
        shared
            .metrics
            .count_received(kind, 5 + payload.len() as u64);
        match kind {
            // A stranger's one bounded HELLO names it. Any other HELLO,
            // and anything else from a stranger, drops the connection.
            frame::HELLO if !protocol && payload.len() <= frame::MAX_HELLO_ADDR => {
                let Ok(addr) = String::from_utf8(payload) else {
                    return;
                };
                if let Some(peer) = shared.peers.lock().unwrap().get_mut(&id) {
                    peer.addr = Some(addr);
                }
                protocol = true;
                shared.metrics.connections.inc();
            }
            _ if !protocol => return,
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
            _ => return, // A second HELLO or an unknown kind: drop the peer.
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
        let a = Transport::start("127.0.0.1:0", &[], Registry::new()).unwrap();

        // An address one byte over the bound never names a peer.
        let long = "9".repeat(frame::MAX_HELLO_ADDR + 1);
        let mut client = raw_client(&a);
        send(&mut client, frame::HELLO, long.as_bytes());
        assert_eq!(kinds_until_closed(&client), [], "no HELLO back");

        // The first HELLO is not answered; the second closes the
        // connection.
        let mut client = raw_client(&a);
        send(&mut client, frame::HELLO, b"127.0.0.1:1");
        send(&mut client, frame::HELLO, b"127.0.0.1:2");
        assert_eq!(kinds_until_closed(&client), []);
        wait_for(|| a.peer_count() == 0, "the dropped peer to be forgotten");
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
        assert_eq!(kinds_until_closed(&peer), []);
        wait_for(|| a.peer_count() == 0, "the peer to be dropped");
        a.shutdown();
    }

    #[test]
    fn hellos_from_many_addresses_add_no_samples() {
        let registry = Registry::new();
        let a = Transport::start("127.0.0.1:0", &[], registry.clone()).unwrap();
        let samples = || {
            a.publish();
            let text = algorand_obs::expose::render(&registry);
            algorand_obs::expose::parse(&text).unwrap().len()
        };
        let before = samples();

        // Each client says one distinct HELLO and leaves: the addresses
        // it named must leave nothing behind in the exposition.
        for i in 0..300u32 {
            let mut client = raw_client(&a);
            send(
                &mut client,
                frame::HELLO,
                format!("10.0.{}.{}:9001", i / 256, i % 256).as_bytes(),
            );
        }
        let connections = registry.counter("transport.connections");
        wait_for(
            || connections.get() == 300 && a.peer_count() == 0,
            "every HELLO to be read and its connection dropped",
        );
        assert_eq!(samples(), before);
        a.shutdown();
    }

    #[test]
    fn a_configured_peer_that_dialled_in_first_is_not_dialled_back() {
        // a and b are each configured with the other. b starts half a
        // tick before a, so its first dial reaches a half a tick before
        // a's first maintenance pass looks for b.
        let held = [(); 2].map(|()| TcpListener::bind("127.0.0.1:0").unwrap());
        let [addr_a, addr_b] = held.map(|l| l.local_addr().unwrap().to_string());
        let (reg_a, reg_b) = (Registry::new(), Registry::new());
        let b = Transport::start(&addr_b, std::slice::from_ref(&addr_a), reg_b.clone()).unwrap();
        std::thread::sleep(MAINTENANCE_TICK / 2);
        let a = Transport::start(&addr_a, &[addr_b], reg_a.clone()).unwrap();
        std::thread::sleep(MAINTENANCE_TICK * 3 + MAINTENANCE_TICK / 5);

        for (name, t, reg) in [("a", &a, &reg_a), ("b", &b, &reg_b)] {
            assert_eq!(t.peer_count(), 1, "{name}'s peers");
            assert_eq!(
                reg.counter("transport.connections").get(),
                1,
                "{name}'s connections"
            );
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn a_peer_configured_under_another_name_is_dialled_again_after_a_restart() {
        // b knows a as `localhost:PORT`; a advertises `127.0.0.1:PORT`.
        let a = Transport::start("127.0.0.1:0", &[], Registry::new()).unwrap();
        let listen = a.local_addr().to_string();
        let port = listen.rsplit(':').next().unwrap();
        let b = Transport::start(
            "127.0.0.1:0",
            &[format!("localhost:{port}")],
            Registry::new(),
        )
        .unwrap();
        wait_for(|| a.peer_count() == 1 && b.peer_count() == 1, "b to dial a");

        a.shutdown();
        wait_for(|| b.peer_count() == 0, "b to see a go");
        let mut restarted = None;
        wait_for(
            || {
                restarted = Transport::start(&listen, &[], Registry::new()).ok();
                restarted.is_some()
            },
            "a's port to be free again",
        );
        let a = restarted.unwrap();
        wait_for(
            || a.peer_count() == 1 && b.peer_count() == 1,
            "b to dial the restarted a",
        );
        a.shutdown();
        b.shutdown();
    }
}
