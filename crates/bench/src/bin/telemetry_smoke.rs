//! Telemetry determinism gate: scraping must not perturb what it reads.
//!
//! Boots ONE `algorand-node` process configured to be perfectly idle —
//! no peers, `min_peers = 0`, and every λ timeout pushed out to two
//! minutes, so after the initial round-1 proposal burst nothing happens
//! — then asserts the two properties the exposition format promises:
//!
//! 1. **Byte stability** — two TELEMETRY scrapes of an idle node return
//!    *byte-identical* text. This is what makes scrape diffs meaningful:
//!    any changed byte is a changed counter, never formatting jitter or
//!    the scrape's own footprint (TELEMETRY frames are unmetered, and a
//!    scraper that never sends HELLO is not a peer).
//! 2. **Scrape rate limiting** — a single connection hammering
//!    `TEL_METRICS_REQ` past [`TELEMETRY_BURST`] gets `TEL_THROTTLED`
//!    error frames (never silence, never disconnect), while a fresh
//!    connection — its own token bucket — is still served.
//!
//! Exit code 0 only if both hold, so `scripts/ci.sh` can gate on it.

use algorand_node::frame;
use algorand_node::telemetry::scrape_metrics;
use algorand_node::transport::TELEMETRY_BURST;
use algorand_node::NodeConfig;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn main() {
    let root = std::env::temp_dir().join(format!("algorand-telsmoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create scratch dir");

    let cfg = NodeConfig {
        index: 0,
        seed: 42,
        listen: "127.0.0.1:0".into(),
        wal_dir: root.join("n0"),
        target_round: 0,
        deadline_secs: 90,
        tx_count: 8,
        // Idle by construction: no timer may fire during the gate.
        lambda_priority_ms: 120_000,
        lambda_stepvar_ms: 120_000,
        lambda_step_ms: 120_000,
        lambda_block_ms: 120_000,
        trace: true,
        ..NodeConfig::default()
    };
    std::fs::write(root.join("n0.conf"), cfg.render()).expect("write config");
    let mut child = std::process::Command::new(node_binary())
        .arg(root.join("n0.conf"))
        .spawn()
        .expect("spawn algorand-node");

    let addr_file = cfg.wal_dir.join("addr");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !addr_file.exists() {
        assert!(
            Instant::now() < deadline,
            "node never published its address"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let addr = std::fs::read_to_string(&addr_file).expect("read addr");
    let addr = addr.trim();
    println!("[telemetry_smoke] node bound {addr}");
    // Let the round-1 startup burst (proposal sortition, initial spans)
    // finish before the first scrape.
    std::thread::sleep(Duration::from_millis(1500));

    let timeout = Duration::from_secs(10);
    let first = scrape_metrics(addr, timeout).expect("first scrape");
    std::thread::sleep(Duration::from_millis(400));
    let second = scrape_metrics(addr, timeout).expect("second scrape");

    assert!(!first.is_empty(), "exposition must not be empty");
    for required in [
        "node.tip_round",
        "pipeline.ingested",
        "wal.entries",
        "transport.frames_sent",
        "monitor.violations 0",
        "trace.dropped 0",
    ] {
        assert!(
            first.contains(required),
            "exposition is missing `{required}`:\n{first}"
        );
    }
    if first != second {
        // Print the first differing line pair for diagnosis.
        for (a, b) in first.lines().zip(second.lines()) {
            if a != b {
                eprintln!("[telemetry_smoke] differs:\n  scrape 1: {a}\n  scrape 2: {b}");
            }
        }
        panic!("idle-node scrapes are not byte-identical");
    }
    println!(
        "[telemetry_smoke] byte-stable: {} bytes, {} samples",
        first.len(),
        first.lines().count()
    );

    // Throttle leg: one connection burns through its burst. Every scrape
    // above used a fresh connection (a fresh bucket), so none of them
    // felt the limit. Over-budget requests must come back as
    // TEL_THROTTLED error frames on the same (still-open) connection,
    // and a *fresh* connection — with its own bucket — must still be
    // served afterwards.
    const HAMMER: usize = 3 * TELEMETRY_BURST as usize;
    let mut raw = TcpStream::connect(addr).expect("connect for throttle leg");
    raw.set_read_timeout(Some(timeout)).expect("read timeout");
    let request = frame::encode_frame(frame::TELEMETRY, &[frame::TEL_METRICS_REQ])
        .expect("encode metrics request");
    raw.write_all(&request.repeat(HAMMER))
        .expect("send metrics requests");
    raw.flush().expect("flush throttle burst");
    let mut reader = BufReader::new(raw);
    let mut served = 0usize;
    let mut throttled = 0usize;
    for _ in 0..HAMMER {
        let (kind, payload) = frame::read_frame(&mut reader).expect("read throttle response");
        assert_eq!(kind, frame::TELEMETRY, "only TELEMETRY frames expected");
        match payload.first() {
            Some(&frame::TEL_METRICS_RESP) => served += 1,
            Some(&frame::TEL_THROTTLED) => throttled += 1,
            other => panic!("unexpected telemetry op {other:?}"),
        }
    }
    assert!(served >= 1, "the burst allowance must be served");
    assert!(
        throttled >= 1,
        "{HAMMER} rapid requests with burst={TELEMETRY_BURST} must trip the limiter"
    );
    let after = scrape_metrics(addr, timeout).expect("fresh connection after throttling");
    assert!(
        !after.is_empty(),
        "a fresh connection must be unaffected by another scraper's bucket"
    );
    println!("[telemetry_smoke] throttle ok: {served} served, {throttled} throttled");

    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&root);
    println!("[telemetry_smoke] PASS");
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
