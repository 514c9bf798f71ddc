//! Telemetry scrape client and cluster health reporting.
//!
//! The serving side lives in the transport/runtime (a TELEMETRY frame on
//! the ordinary peer port answers with the metrics exposition or a
//! flight-recorder dump). This module is the *consuming* side: a
//! blocking [`scrape_metrics`] / [`scrape_flight`] client that speaks
//! just enough of the framing to ask and read the answer, and the
//! [`ClusterHealth`] merger the `cluster_health` bench bin and the
//! localnet CI gate render operator reports from.
//!
//! A scraper deliberately never sends HELLO, so the scraped node treats
//! the connection as a non-protocol peer: no broadcasts arrive, nothing
//! is counted, and (the `telemetry_smoke` gate's invariant) two scrapes
//! of an idle node return byte-identical exposition text.

use crate::frame;
use algorand_obs::expose::{self, Sample};
use algorand_obs::merge::NodeTrace;
use algorand_obs::{parse_jsonl, Trace};
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One request/response exchange: connect, send the `req_op` TELEMETRY
/// frame with `body`, read frames until the matching response op
/// arrives. Returns the response payload *after* the op byte.
///
/// # Errors
///
/// I/O failures, timeout, a throttled-scrape error frame, or a
/// malformed/mismatched response.
fn scrape_raw(
    addr: &str,
    req_op: u8,
    body: &[u8],
    resp_op: u8,
    timeout: Duration,
) -> io::Result<Vec<u8>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut writer = stream.try_clone()?;
    let mut req = Vec::with_capacity(1 + body.len());
    req.push(req_op);
    req.extend_from_slice(body);
    writer.write_all(&frame::encode_frame(frame::TELEMETRY, &req)?)?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let deadline = Instant::now() + timeout;
    loop {
        if Instant::now() >= deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "scrape timed out"));
        }
        let (kind, payload) = frame::read_frame(&mut reader)?;
        if kind != frame::TELEMETRY {
            // The node may push HELLO/PEERS/etc. before answering; skip
            // anything that is not a telemetry frame.
            continue;
        }
        if payload.first() == Some(&frame::TEL_THROTTLED) {
            // Waiting out a throttle would just hang until the timeout;
            // surface it so the caller can back off deliberately.
            return Err(io::Error::other("scrape throttled by node rate limit"));
        }
        if payload.first() != Some(&resp_op) {
            continue;
        }
        return Ok(payload[1..].to_vec());
    }
}

/// Text-response exchange (metrics exposition, flight dump).
fn scrape(addr: &str, req_op: u8, resp_op: u8, timeout: Duration) -> io::Result<String> {
    let payload = scrape_raw(addr, req_op, &[], resp_op, timeout)?;
    String::from_utf8(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Scrapes a node's metrics exposition text.
///
/// # Errors
///
/// I/O failures, timeout, or a non-UTF-8 response.
pub fn scrape_metrics(addr: &str, timeout: Duration) -> io::Result<String> {
    scrape(
        addr,
        frame::TEL_METRICS_REQ,
        frame::TEL_METRICS_RESP,
        timeout,
    )
}

/// Scrapes a node's flight-recorder dump (trace JSONL).
///
/// # Errors
///
/// I/O failures, timeout, or a non-UTF-8 response.
pub fn scrape_flight(addr: &str, timeout: Duration) -> io::Result<String> {
    scrape(addr, frame::TEL_FLIGHT_REQ, frame::TEL_FLIGHT_RESP, timeout)
}

/// One trace-drain exchange: asks for the bounded trace buffer from
/// `cursor` and returns `(next_cursor, total, chunk)` where `chunk` is
/// the parsed trace JSONL the node answered with (its `schedule` names
/// the node index and cursor).
///
/// # Errors
///
/// I/O failures, timeout, or a malformed response body.
pub fn scrape_trace(addr: &str, cursor: u64, timeout: Duration) -> io::Result<(u64, u64, Trace)> {
    let body = scrape_raw(
        addr,
        frame::TEL_TRACE_REQ,
        &frame::encode_trace_req(cursor),
        frame::TEL_TRACE_RESP,
        timeout,
    )?;
    let (next, total, jsonl) = frame::decode_trace_resp(&body)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad TRACE_RESP body"))?;
    let trace = parse_jsonl(jsonl).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok((next, total, trace))
}

/// Drains a node's whole trace buffer, resuming from the returned
/// cursor until a chunk comes back empty. A live node keeps appending
/// while we drain, so this always issues at least two requests — the
/// final empty read doubles as proof the cursor protocol resumes
/// cleanly. Returns the drained trace (header from the first chunk,
/// events concatenated in buffer order).
///
/// # Errors
///
/// Any exchange failing, or a node that moves the cursor backwards.
pub fn drain_trace(addr: &str, timeout: Duration) -> io::Result<Trace> {
    let mut cursor = 0u64;
    let (mut next, _total, mut drained) = scrape_trace(addr, cursor, timeout)?;
    loop {
        if next < cursor {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace cursor moved backwards: {cursor} -> {next}"),
            ));
        }
        if next == cursor {
            return Ok(drained);
        }
        cursor = next;
        let (n, _t, chunk) = scrape_trace(addr, cursor, timeout)?;
        next = n;
        drained.dropped = chunk.dropped;
        drained.events.extend(chunk.events);
    }
}

/// Drains every node of a cluster, pairing each drained trace with the
/// node index its drain header names. Addresses that fail to drain are
/// returned as errors alongside the successes, mirroring
/// [`ClusterHealth::collect`]'s not-fatal stance.
pub fn drain_cluster(
    addrs: &[String],
    timeout: Duration,
) -> (Vec<NodeTrace>, Vec<(String, String)>) {
    let mut traces = Vec::new();
    let mut failed = Vec::new();
    for addr in addrs {
        match drain_trace(addr, timeout) {
            Ok(trace) => {
                let node = trace
                    .schedule
                    .strip_prefix("drain node=")
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|n| n.parse::<u32>().ok());
                match node {
                    Some(node) => traces.push(NodeTrace {
                        node,
                        addr: addr.clone(),
                        trace,
                    }),
                    None => failed.push((
                        addr.clone(),
                        format!("drain header names no node index: {:?}", trace.schedule),
                    )),
                }
            }
            Err(e) => failed.push((addr.clone(), e.to_string())),
        }
    }
    (traces, failed)
}

/// One scraped node's digest of health-relevant samples.
#[derive(Clone, Debug)]
pub struct NodeHealth {
    /// The address scraped.
    pub addr: String,
    /// `node.tip_round`.
    pub tip: i64,
    /// `node.tip_hash64` — first 8 bytes of the tip hash, for cheap
    /// cross-node agreement checks.
    pub tip_hash64: i64,
    /// `monitor.violations` (in-process invariant monitor).
    pub monitor_violations: i64,
    /// `node.alerts` — lines the node has pushed to its `alerts.jsonl`
    /// (monitor flips, peer-drop thresholds).
    pub alerts: i64,
    /// `trace.dropped`.
    pub trace_dropped: i64,
    /// Total send-queue drops plus the deepest per-peer queue: the
    /// node's outbound pressure at scrape time.
    pub queue_pressure: i64,
    /// `pipeline.ingested`.
    pub pipeline_ingested: i64,
    /// `transport.frames_sent`.
    pub frames_sent: i64,
    /// `wal.entries`.
    pub wal_entries: i64,
    /// Every sample, for report detail lines and custom checks.
    pub samples: Vec<Sample>,
}

impl NodeHealth {
    /// Parses a scraped exposition text into a health digest.
    ///
    /// # Errors
    ///
    /// Returns the parser's description of the first malformed line, or
    /// `missing sample <name>`: the runtime publishes every unlabelled
    /// sample read here on each scrape, so an absent one is a sick node,
    /// not a zero. (The per-peer queue depths may legitimately be empty.)
    pub fn from_exposition(addr: &str, text: &str) -> Result<NodeHealth, String> {
        let samples = expose::parse(text)?;
        let get = |name: &str| -> Result<i64, String> {
            samples
                .iter()
                .find(|s| s.name == name && s.labels.is_empty())
                .map(|s| s.value as i64)
                .ok_or_else(|| format!("missing sample {name}"))
        };
        let drops_total = get("transport.send_drops")?;
        let max_depth = samples
            .iter()
            .filter(|s| s.name == "transport.send_queue_depth")
            .map(|s| s.value as i64)
            .max()
            .unwrap_or(0);
        Ok(NodeHealth {
            addr: addr.to_string(),
            tip: get("node.tip_round")?,
            tip_hash64: get("node.tip_hash64")?,
            monitor_violations: get("monitor.violations")?,
            alerts: get("node.alerts")?,
            trace_dropped: get("trace.dropped")?,
            queue_pressure: drops_total + max_depth,
            pipeline_ingested: get("pipeline.ingested")?,
            frames_sent: get("transport.frames_sent")?,
            wal_entries: get("wal.entries")?,
            samples,
        })
    }

    /// "clean" when the in-process monitor has flagged nothing.
    pub fn verdict(&self) -> &'static str {
        if self.monitor_violations == 0 {
            "clean"
        } else {
            "VIOLATIONS"
        }
    }
}

/// Scraped health across a whole deployment, with round rates from a
/// second scrape pass.
#[derive(Clone, Debug)]
pub struct ClusterHealth {
    /// Per-node digests, in scrape order.
    pub nodes: Vec<NodeHealth>,
    /// Rounds/second per node between the two scrape passes (None when
    /// only one pass ran).
    pub round_rates: Option<Vec<f64>>,
    /// Addresses that failed to scrape, with the error.
    pub unreachable: Vec<(String, String)>,
}

impl ClusterHealth {
    /// Scrapes every address once. Unreachable nodes are recorded, not
    /// fatal — a health report that dies on the first sick node is
    /// useless for diagnosing it.
    pub fn collect(addrs: &[String], timeout: Duration) -> ClusterHealth {
        let mut nodes = Vec::new();
        let mut unreachable = Vec::new();
        for addr in addrs {
            match scrape_metrics(addr, timeout)
                .map_err(|e| e.to_string())
                .and_then(|text| NodeHealth::from_exposition(addr, &text))
            {
                Ok(h) => nodes.push(h),
                Err(e) => unreachable.push((addr.clone(), e)),
            }
        }
        ClusterHealth {
            nodes,
            round_rates: None,
            unreachable,
        }
    }

    /// Scrapes twice, `interval` apart, and derives per-node round rates
    /// from the tip movement.
    pub fn collect_with_rates(
        addrs: &[String],
        timeout: Duration,
        interval: Duration,
    ) -> ClusterHealth {
        let first = ClusterHealth::collect(addrs, timeout);
        std::thread::sleep(interval);
        let mut second = ClusterHealth::collect(addrs, timeout);
        let secs = interval.as_secs_f64().max(1e-9);
        second.round_rates = Some(
            second
                .nodes
                .iter()
                .map(|after| {
                    let before = first
                        .nodes
                        .iter()
                        .find(|b| b.addr == after.addr)
                        .map_or(after.tip, |b| b.tip);
                    (after.tip - before) as f64 / secs
                })
                .collect(),
        );
        second
    }

    /// Max tip minus min tip across reachable nodes (0 when fewer than
    /// two nodes answered).
    pub fn tip_spread(&self) -> i64 {
        let tips: Vec<i64> = self.nodes.iter().map(|n| n.tip).collect();
        match (tips.iter().max(), tips.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }

    /// True when every node at the *same* tip reports the same
    /// `tip_hash64` — nodes at different rounds legitimately differ.
    pub fn digests_agree(&self) -> bool {
        for a in &self.nodes {
            for b in &self.nodes {
                if a.tip == b.tip && a.tip_hash64 != b.tip_hash64 {
                    return false;
                }
            }
        }
        true
    }

    /// Total monitor violations across the cluster.
    pub fn total_violations(&self) -> i64 {
        self.nodes.iter().map(|n| n.monitor_violations).sum()
    }

    /// Total pushed alerts across the cluster.
    pub fn total_alerts(&self) -> i64 {
        self.nodes.iter().map(|n| n.alerts).sum()
    }

    /// The operator-facing report: one block per node, then the cluster
    /// roll-up. Deterministic for a given set of digests.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("cluster health\n==============\n");
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "node {addr}\n  tip={tip} hash64={hash:#018x} verdict={verdict}\n  \
                 pipeline.ingested={ing} transport.frames_sent={fs} wal.entries={we}\n  \
                 queue_pressure={qp} trace.dropped={td} alerts={al}\n",
                addr = n.addr,
                tip = n.tip,
                hash = n.tip_hash64 as u64,
                verdict = n.verdict(),
                ing = n.pipeline_ingested,
                fs = n.frames_sent,
                we = n.wal_entries,
                qp = n.queue_pressure,
                td = n.trace_dropped,
                al = n.alerts,
            ));
            if let Some(rates) = &self.round_rates {
                if let Some(rate) = rates.get(i) {
                    out.push_str(&format!("  round_rate={rate:.2}/s\n"));
                }
            }
        }
        for (addr, err) in &self.unreachable {
            out.push_str(&format!("node {addr}\n  UNREACHABLE: {err}\n"));
        }
        out.push_str(&format!(
            "cluster: nodes={} unreachable={} tip_spread={} digests_agree={} violations={} alerts={}\n",
            self.nodes.len(),
            self.unreachable.len(),
            self.tip_spread(),
            self.digests_agree(),
            self.total_violations(),
            self.total_alerts(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_obs::{labeled, Registry};

    fn exposition(tip: i64, hash: i64, violations: i64) -> String {
        let reg = Registry::new();
        reg.gauge("node.tip_round").set(tip);
        reg.gauge("node.tip_hash64").set(hash);
        reg.gauge("monitor.violations").set(violations);
        reg.gauge("node.alerts").set(0);
        reg.gauge("trace.dropped").set(0);
        reg.counter("transport.send_drops").add(2);
        reg.gauge(&labeled(
            "transport.send_queue_depth",
            &[("peer", "127.0.0.1:9001")],
        ))
        .set(5);
        reg.gauge("pipeline.ingested").set(100);
        reg.counter("transport.frames_sent").add(40);
        reg.counter("wal.entries").add(3);
        expose::render(&reg)
    }

    #[test]
    fn health_digest_reads_key_samples() {
        let h = NodeHealth::from_exposition("n0", &exposition(7, 0x1234, 0)).unwrap();
        assert_eq!(h.tip, 7);
        assert_eq!(h.tip_hash64, 0x1234);
        assert_eq!(h.verdict(), "clean");
        assert_eq!(h.queue_pressure, 7, "2 drops + depth 5");
        assert_eq!(h.pipeline_ingested, 100);
        assert_eq!(h.wal_entries, 3);
    }

    #[test]
    fn absent_gauge_is_an_error_not_a_zero() {
        let without = |prefix: &str| -> String {
            exposition(7, 0x1234, 0)
                .lines()
                .filter(|l| !l.starts_with(prefix))
                .map(|l| format!("{l}\n"))
                .collect()
        };
        let sick = without("monitor.violations");
        let err = NodeHealth::from_exposition("n0", &sick).unwrap_err();
        assert_eq!(err, "missing sample monitor.violations");
        // No labelled per-peer depth is fine: an idle node has no peers.
        let h = NodeHealth::from_exposition("n0", &without("transport.send_queue_depth")).unwrap();
        assert_eq!(h.queue_pressure, 2, "drops only");
        // A live node's scrape carries every sample the digest reads.
        let live = include_str!("../../../results/cluster_metrics.txt");
        let h = NodeHealth::from_exposition("live", live).unwrap();
        assert_eq!(h.verdict(), "clean");

        // Scraped over the wire, the sick node is filed under
        // `unreachable` (which `cluster_health` exits 1 on), not rendered
        // as `verdict=clean`.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            frame::read_frame(&mut BufReader::new(conn.try_clone().unwrap())).unwrap();
            let mut resp = vec![frame::TEL_METRICS_RESP];
            resp.extend_from_slice(sick.as_bytes());
            conn.write_all(&frame::encode_frame(frame::TELEMETRY, &resp).unwrap())
                .unwrap();
        });
        let health = ClusterHealth::collect(std::slice::from_ref(&addr), Duration::from_secs(5));
        server.join().unwrap();
        assert!(health.nodes.is_empty());
        assert_eq!(
            health.unreachable,
            vec![(addr, "missing sample monitor.violations".to_string())]
        );
    }

    #[test]
    fn cluster_rollup_flags_disagreement_and_violations() {
        let mk = |addr: &str, tip, hash, v| {
            NodeHealth::from_exposition(addr, &exposition(tip, hash, v)).unwrap()
        };
        let agree = ClusterHealth {
            nodes: vec![mk("a", 5, 10, 0), mk("b", 5, 10, 0), mk("c", 4, 99, 0)],
            round_rates: None,
            unreachable: Vec::new(),
        };
        assert_eq!(agree.tip_spread(), 1);
        assert!(agree.digests_agree(), "different rounds may differ");
        assert_eq!(agree.total_violations(), 0);

        let split = ClusterHealth {
            nodes: vec![mk("a", 5, 10, 0), mk("b", 5, 11, 2)],
            round_rates: None,
            unreachable: Vec::new(),
        };
        assert!(!split.digests_agree());
        assert_eq!(split.total_violations(), 2);
        let report = split.render();
        assert!(report.contains("digests_agree=false"), "{report}");
        assert!(report.contains("verdict=VIOLATIONS"), "{report}");
    }

    #[test]
    fn unreachable_nodes_are_reported_not_fatal() {
        // Nothing listens on this port (bind+drop grabs a free one).
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let health =
            ClusterHealth::collect(std::slice::from_ref(&addr), Duration::from_millis(200));
        assert!(health.nodes.is_empty());
        assert_eq!(health.unreachable.len(), 1);
        assert!(health.render().contains("UNREACHABLE"));
    }
}
