//! Telemetry scrape client and cluster health reporting.
//!
//! The serving side lives in the transport/runtime (a TELEMETRY frame on
//! the ordinary peer port answers with the metrics exposition or a
//! trace-buffer chunk). This module is the *consuming* side: a blocking
//! [`scrape_metrics`] / [`drain_trace`] client that speaks just enough
//! of the framing to ask and read the answer, and the
//! [`ClusterHealth`] merger that `trace health` and the localnet CI gate
//! render operator reports from. [`discover`] finds a deployment's
//! endpoints and [`collect_trace`] turns them into one merged cluster
//! trace, for `trace collect` and localnet alike.
//!
//! A scraper deliberately never sends HELLO, so the scraped node treats
//! the connection as a non-protocol peer: no broadcasts arrive, nothing
//! is counted, and (as `runtime`'s tests check) two scrapes of an idle
//! node return byte-identical exposition text.

use crate::frame;
use algorand_obs::expose::{self, Sample};
use algorand_obs::merge::{merge, render_report, write_merged, Merged, NodeTrace};
use algorand_obs::{parse_jsonl, Trace};
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
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

/// Scrapes a node's metrics exposition text.
///
/// # Errors
///
/// I/O failures, timeout, or a non-UTF-8 response.
pub fn scrape_metrics(addr: &str, timeout: Duration) -> io::Result<String> {
    let payload = scrape_raw(
        addr,
        frame::TEL_METRICS_REQ,
        &[],
        frame::TEL_METRICS_RESP,
        timeout,
    )?;
    String::from_utf8(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Drains a node's whole trace buffer: each `TEL_TRACE_REQ` asks from a
/// cursor and the answer carries the next cursor plus a chunk of trace
/// JSONL (its `schedule` names the node index and cursor), resumed until
/// a chunk comes back empty. A live node keeps appending while we drain,
/// so this always issues at least two requests — the final empty read
/// doubles as proof the cursor protocol resumes cleanly. Returns the
/// drained trace (header from the first chunk, events concatenated in
/// buffer order).
///
/// # Errors
///
/// Any exchange failing, a malformed answer, or a node that moves the
/// cursor backwards.
pub fn drain_trace(addr: &str, timeout: Duration) -> io::Result<Trace> {
    let bad = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let (mut cursor, mut drained) = (0u64, None::<Trace>);
    loop {
        let req = frame::encode_trace_req(cursor);
        let body = scrape_raw(
            addr,
            frame::TEL_TRACE_REQ,
            &req,
            frame::TEL_TRACE_RESP,
            timeout,
        )?;
        let (next, _total, jsonl) =
            frame::decode_trace_resp(&body).ok_or_else(|| bad("bad TRACE_RESP body".into()))?;
        let chunk = parse_jsonl(jsonl).map_err(bad)?;
        if next < cursor {
            return Err(bad(format!(
                "trace cursor moved backwards: {cursor} -> {next}"
            )));
        }
        match &mut drained {
            None => drained = Some(chunk),
            Some(d) => {
                d.dropped = chunk.dropped;
                d.events.extend(chunk.events);
            }
        }
        if next == cursor {
            return Ok(drained.expect("a chunk was read"));
        }
        cursor = next;
    }
}

/// The endpoints a deployment publishes: one `<root>/<node dir>/addr`
/// file per process (`n0/addr`, `n1/addr`, … as a localnet harness lays
/// them out), in node order.
///
/// # Errors
///
/// An unreadable `root`, an `addr` file that cannot be read or is empty
/// (the message names it), or no `*/addr` file under `root` at all.
pub fn discover(root: &Path) -> Result<Vec<String>, String> {
    let unreadable = |e: io::Error| format!("read_dir {}: {e}", root.display());
    let mut found = Vec::new();
    for entry in std::fs::read_dir(root).map_err(unreadable)? {
        let dir = entry.map_err(unreadable)?.path();
        let file = dir.join("addr");
        if !file.exists() {
            continue;
        }
        let addr =
            std::fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        if addr.trim().is_empty() {
            return Err(format!("read {}: empty", file.display()));
        }
        let name = dir.file_name().map(|n| n.to_string_lossy().into_owned());
        let name = name.unwrap_or_default();
        // Shorter names first, so `n2` sorts before `n10`.
        found.push((name.len(), name, addr.trim().to_string()));
    }
    if found.is_empty() {
        return Err(format!("no */addr files under {}", root.display()));
    }
    found.sort();
    Ok(found.into_iter().map(|(_, _, addr)| addr).collect())
}

/// Drains every node at `addrs`, merges the drains, merges them again
/// and demands the same bytes — the merge must be a pure function of the
/// drains, or artifacts could not be compared across reruns — then
/// writes the merged JSONL to `out` and its critical-path report
/// ([`render_report`]) to `report`.
///
/// # Errors
///
/// The first drain that fails or whose header names no node index, a
/// merge that fails or differs on the second try, or a failed write.
pub fn collect_trace(
    addrs: &[String],
    timeout: Duration,
    out: &Path,
    report: &Path,
) -> Result<Merged, String> {
    let mut traces = Vec::new();
    for addr in addrs {
        let trace = drain_trace(addr, timeout).map_err(|e| format!("drain {addr}: {e}"))?;
        let node = trace
            .schedule
            .strip_prefix("drain node=")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("drain {addr}: header names no node: {:?}", trace.schedule))?;
        traces.push(NodeTrace {
            node,
            addr: addr.clone(),
            trace,
        });
    }
    let merged = merge(&traces)?;
    let artifact = write_merged(&merged);
    if write_merged(&merge(&traces)?) != artifact {
        return Err("merge is not deterministic: re-merging the same drains differed".into());
    }
    for (path, text) in [(out, artifact), (report, render_report(&merged))] {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(merged)
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
            expose::unlabelled(&samples, name)
                .map(|v| v as i64)
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

    /// The operator-facing report: one block per node, then the cluster
    /// roll-up. Deterministic for a given set of digests.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("cluster health\n==============\n");
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "node {addr}\n  tip={tip} hash64={hash:#018x} verdict={verdict}\n  \
                 pipeline.ingested={ing} transport.frames_sent={fs} wal.entries={we}\n  \
                 queue_pressure={qp} trace.dropped={td}\n",
                addr = n.addr,
                tip = n.tip,
                hash = n.tip_hash64 as u64,
                verdict = n.verdict(),
                ing = n.pipeline_ingested,
                fs = n.frames_sent,
                we = n.wal_entries,
                qp = n.queue_pressure,
                td = n.trace_dropped,
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
            "cluster: nodes={} unreachable={} tip_spread={} digests_agree={} violations={}\n",
            self.nodes.len(),
            self.unreachable.len(),
            self.tip_spread(),
            self.digests_agree(),
            self.total_violations(),
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
        // `unreachable` (which `trace health` exits 1 on), not rendered
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

    #[test]
    fn discover_reads_addr_files_in_node_order() {
        let root = std::env::temp_dir().join(format!("algorand-discover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let node = |name: &str| {
            let dir = root.join(name);
            std::fs::create_dir_all(&dir).unwrap();
            dir.join("addr")
        };
        // Neither a config file nor a directory without `addr` is a node.
        node("spare");
        std::fs::write(root.join("n0.conf"), "index = 0\n").unwrap();
        assert!(discover(&root)
            .unwrap_err()
            .starts_with("no */addr files under"));
        for i in [2, 0, 10, 1] {
            std::fs::write(node(&format!("n{i}")), format!("127.0.0.1:90{i:02}\n")).unwrap();
        }
        assert_eq!(
            discover(&root).unwrap(),
            [
                "127.0.0.1:9000",
                "127.0.0.1:9001",
                "127.0.0.1:9002",
                "127.0.0.1:9010"
            ]
        );

        let n1 = node("n1");
        std::fs::write(&n1, " \n").unwrap();
        let err = discover(&root).unwrap_err();
        assert!(
            err.contains(&n1.display().to_string()) && err.ends_with("empty"),
            "{err}"
        );
        // An `addr` that cannot be read as a file.
        std::fs::remove_file(&n1).unwrap();
        std::fs::create_dir(&n1).unwrap();
        let err = discover(&root).unwrap_err();
        assert!(
            err.starts_with(&format!("read {}: ", n1.display())),
            "{err}"
        );

        std::fs::remove_dir_all(&root).unwrap();
        assert!(discover(&root).unwrap_err().starts_with("read_dir "));
    }
}
