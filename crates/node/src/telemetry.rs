//! Cluster health reporting and cluster-trace collection: the reading
//! side of the files a deployment's processes write into their node
//! directories.
//!
//! [`discover`] finds a deployment's node directories and endpoints. A
//! running node rewrites `metrics.txt` there at every STATUS tick and at
//! exit, and [`ClusterHealth`] reads those files into the operator
//! report that `trace health` and the localnet CI gate render.
//! [`collect_trace`] merges the `trace.jsonl` files the processes wrote
//! at exit into one cluster trace, for `trace collect` and localnet
//! alike.

use algorand_obs::expose::{self, Sample};
use algorand_obs::merge::{merge, render_report, write_merged, Merged, NodeTrace};
use algorand_obs::parse_jsonl;
use std::io;
use std::path::{Path, PathBuf};

/// The processes a deployment publishes: one `<root>/<node dir>/addr`
/// file per process (`n0/addr`, `n1/addr`, … as a localnet harness lays
/// them out), as `(node dir, address)` pairs in node order.
///
/// # Errors
///
/// An unreadable `root`, an `addr` file that cannot be read or is empty
/// (the message names it), or no `*/addr` file under `root` at all.
pub fn discover(root: &Path) -> Result<Vec<(PathBuf, String)>, String> {
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
        found.push((name.len(), name, dir, addr.trim().to_string()));
    }
    if found.is_empty() {
        return Err(format!("no */addr files under {}", root.display()));
    }
    found.sort();
    Ok(found
        .into_iter()
        .map(|(_, _, dir, addr)| (dir, addr))
        .collect())
}

/// Reads the `trace.jsonl` every process under `root` wrote at exit
/// (its header's `schedule` is `node=<index>`), merges the traces,
/// merges them again and demands the same bytes — the merge must be a
/// pure function of its inputs, or artifacts could not be compared
/// across reruns — then writes the merged JSONL to `out` and its
/// critical-path report ([`render_report`]) to `report`.
///
/// # Errors
///
/// What [`discover`] reports, the first trace file that cannot be read
/// or parsed or whose header names no node (the message names the
/// file), a merge that fails or differs on the second try, or a failed
/// write.
pub fn collect_trace(root: &Path, out: &Path, report: &Path) -> Result<Merged, String> {
    let mut traces = Vec::new();
    for (dir, addr) in discover(root)? {
        let file = dir.join("trace.jsonl");
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        let trace = parse_jsonl(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let node = trace
            .schedule
            .strip_prefix("node=")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| {
                format!(
                    "{}: header names no node: {:?}",
                    file.display(),
                    trace.schedule
                )
            })?;
        traces.push(NodeTrace { node, addr, trace });
    }
    let merged = merge(&traces)?;
    let artifact = write_merged(&merged);
    if write_merged(&merge(&traces)?) != artifact {
        return Err("merge is not deterministic: re-merging the same traces differed".into());
    }
    for (path, text) in [(out, artifact), (report, render_report(&merged))] {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(merged)
}

/// One node's digest of health-relevant samples.
#[derive(Clone, Debug)]
pub struct NodeHealth {
    /// The address the node published.
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
    /// Total send-queue drops plus the deepest peer send queue
    /// (`transport.send_queue_depth`): the node's outbound pressure when
    /// it wrote the file.
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
    /// Parses an exposition text into a health digest.
    ///
    /// # Errors
    ///
    /// Returns the parser's description of the first malformed line, or
    /// `missing sample <name>`: the runtime publishes every unlabelled
    /// sample read here on each write, so an absent one is a sick node,
    /// not a zero.
    pub fn from_exposition(addr: &str, text: &str) -> Result<NodeHealth, String> {
        let samples = expose::parse(text)?;
        let get = |name: &str| -> Result<i64, String> {
            expose::unlabelled(&samples, name)
                .map(|v| v as i64)
                .ok_or_else(|| format!("missing sample {name}"))
        };
        Ok(NodeHealth {
            addr: addr.to_string(),
            tip: get("node.tip_round")?,
            tip_hash64: get("node.tip_hash64")?,
            monitor_violations: get("monitor.violations")?,
            trace_dropped: get("trace.dropped")?,
            queue_pressure: get("transport.send_drops")? + get("transport.send_queue_depth")?,
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

/// Health across a whole deployment, from one reading of its files.
#[derive(Clone, Debug)]
pub struct ClusterHealth {
    /// Per-node digests, in node order.
    pub nodes: Vec<NodeHealth>,
    /// Addresses whose `metrics.txt` was missing or unparsable or lacked
    /// a sample, with the error.
    pub unreadable: Vec<(String, String)>,
}

impl ClusterHealth {
    /// Reads `metrics.txt` in every node directory [`discover`] finds
    /// under `root`. Unreadable nodes are recorded, not fatal — a health
    /// report that dies on the first sick node is useless for diagnosing
    /// it.
    ///
    /// # Errors
    ///
    /// What [`discover`] reports.
    pub fn collect(root: &Path) -> Result<ClusterHealth, String> {
        let mut nodes = Vec::new();
        let mut unreadable = Vec::new();
        for (dir, addr) in discover(root)? {
            let file = dir.join("metrics.txt");
            match std::fs::read_to_string(&file)
                .map_err(|e| format!("read {}: {e}", file.display()))
                .and_then(|text| NodeHealth::from_exposition(&addr, &text))
            {
                Ok(h) => nodes.push(h),
                Err(e) => unreadable.push((addr, e)),
            }
        }
        Ok(ClusterHealth { nodes, unreadable })
    }

    /// Max tip minus min tip across readable nodes (0 when fewer than
    /// two were read).
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
        for n in &self.nodes {
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
        }
        for (addr, err) in &self.unreadable {
            out.push_str(&format!("node {addr}\n  UNREADABLE: {err}\n"));
        }
        out.push_str(&format!(
            "cluster: nodes={} unreadable={} tip_spread={} digests_agree={} violations={}\n",
            self.nodes.len(),
            self.unreadable.len(),
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
    use algorand_obs::{stable_id, Registry, SpanKind, Tracer};

    /// A deployment root `n0/`, `n1/`, … whose node `i` published
    /// `127.0.0.1:900i` and, if given, wrote `metrics[i]`.
    fn deployment(name: &str, metrics: &[Option<&str>]) -> PathBuf {
        let root = std::env::temp_dir().join(format!("algorand-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for (i, text) in metrics.iter().enumerate() {
            let dir = root.join(format!("n{i}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("addr"), format!("127.0.0.1:900{i}\n")).unwrap();
            if let Some(text) = text {
                std::fs::write(dir.join("metrics.txt"), text).unwrap();
            }
        }
        root
    }

    fn exposition(tip: i64, hash: i64, violations: i64) -> String {
        let reg = Registry::new();
        reg.gauge("node.tip_round").set(tip);
        reg.gauge("node.tip_hash64").set(hash);
        reg.gauge("monitor.violations").set(violations);
        reg.gauge("trace.dropped").set(0);
        reg.counter("transport.send_drops").add(2);
        reg.gauge("transport.send_queue_depth").set(5);
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
        // The depth is one pre-registered gauge, so it is never absent
        // either.
        let err = NodeHealth::from_exposition("n0", &without("transport.send_queue_depth"));
        assert_eq!(
            err.unwrap_err(),
            "missing sample transport.send_queue_depth"
        );
        // A live node's exposition carries every sample the digest reads.
        let live = include_str!("../../../results/cluster_metrics.txt");
        let h = NodeHealth::from_exposition("live", live).unwrap();
        assert_eq!(h.verdict(), "clean");

        // Read from its file, the sick node is filed under `unreadable`
        // (which `trace health` exits 1 on), not rendered as
        // `verdict=clean`.
        let root = deployment("sick", &[Some(&sick)]);
        let health = ClusterHealth::collect(&root).unwrap();
        assert!(health.nodes.is_empty());
        assert_eq!(
            health.unreadable,
            vec![(
                "127.0.0.1:9000".to_string(),
                "missing sample monitor.violations".to_string()
            )]
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cluster_rollup_flags_disagreement_and_violations() {
        let mk = |addr: &str, tip, hash, v| {
            NodeHealth::from_exposition(addr, &exposition(tip, hash, v)).unwrap()
        };
        let agree = ClusterHealth {
            nodes: vec![mk("a", 5, 10, 0), mk("b", 5, 10, 0), mk("c", 4, 99, 0)],
            unreadable: Vec::new(),
        };
        assert_eq!(agree.tip_spread(), 1);
        assert!(agree.digests_agree(), "different rounds may differ");
        assert_eq!(agree.total_violations(), 0);

        let split = ClusterHealth {
            nodes: vec![mk("a", 5, 10, 0), mk("b", 5, 11, 2)],
            unreadable: Vec::new(),
        };
        assert!(!split.digests_agree());
        assert_eq!(split.total_violations(), 2);
        let report = split.render();
        assert!(report.contains("digests_agree=false"), "{report}");
        assert!(report.contains("verdict=VIOLATIONS"), "{report}");
    }

    #[test]
    fn unreadable_nodes_are_reported_not_fatal() {
        // n1 has published its address but written no metrics yet.
        let root = deployment("unreadable", &[Some(&exposition(3, 7, 0)), None]);
        let health = ClusterHealth::collect(&root).unwrap();
        assert_eq!(health.nodes.len(), 1);
        let [(addr, err)] = &health.unreadable[..] else {
            panic!("one unreadable node: {:?}", health.unreadable);
        };
        let missing = root.join("n1/metrics.txt").display().to_string();
        assert_eq!(addr, "127.0.0.1:9001");
        assert!(err.starts_with(&format!("read {missing}: ")), "{err}");
        let report = health.render();
        assert!(
            report.contains("node 127.0.0.1:9001\n  UNREADABLE: "),
            "{report}"
        );
        assert!(report.contains("nodes=1 unreadable=1"), "{report}");
        std::fs::remove_dir_all(&root).unwrap();
        assert!(ClusterHealth::collect(&root)
            .unwrap_err()
            .starts_with("read_dir "));
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
        let expected: Vec<(PathBuf, String)> = [0, 1, 2, 10]
            .map(|i| (root.join(format!("n{i}")), format!("127.0.0.1:90{i:02}")))
            .into();
        assert_eq!(discover(&root).unwrap(), expected);

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

    #[test]
    fn collect_trace_merges_the_exit_files_of_every_node() {
        let root = std::env::temp_dir().join(format!("algorand-collect-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // Two processes that both finalized round 1 on the same block,
        // each on its own clock, as they write `trace.jsonl` at exit.
        let block = stable_id(&[7u8; 32]);
        for (i, start) in [(0u32, 1_000_000u64), (1, 400_000)] {
            let dir = root.join(format!("n{i}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("addr"), format!("127.0.0.1:900{i}\n")).unwrap();
            let t = Tracer::bounded(8);
            t.span(SpanKind::Round, i, 1, start)
                .label("final")
                .id(block)
                .ok(true)
                .end_at(start + 300);
            let jsonl = t.export_jsonl(7, &format!("node={i}"));
            std::fs::write(dir.join("trace.jsonl"), jsonl).unwrap();
        }
        let (out, report) = (root.join("out/merged.jsonl"), root.join("out/report.txt"));

        let merged = collect_trace(&root, &out, &report).unwrap();
        let nodes: Vec<(u32, &str, u64)> = merged
            .nodes
            .iter()
            .map(|n| (n.node, n.addr.as_str(), n.anchors))
            .collect();
        assert_eq!(nodes, [(0, "127.0.0.1:9000", 1), (1, "127.0.0.1:9001", 1)]);
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            write_merged(&merged)
        );
        assert_eq!(
            std::fs::read_to_string(&report).unwrap(),
            render_report(&merged)
        );

        // A trace whose header names no node is an error naming its file.
        let file = root.join("n1/trace.jsonl");
        let renamed = std::fs::read_to_string(&file)
            .unwrap()
            .replacen("node=1", "localnet", 1);
        std::fs::write(&file, renamed).unwrap();
        let err = collect_trace(&root, &out, &report).unwrap_err();
        assert_eq!(
            err,
            format!("{}: header names no node: \"localnet\"", file.display())
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
