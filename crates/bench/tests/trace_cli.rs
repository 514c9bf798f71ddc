//! The `trace` bin's exit codes, which scripts branch on: 0 clean, 1 a
//! failed check or an unhealthy cluster, 2 a bad command line.

use std::path::Path;
use std::process::{Command, Output};

fn trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(args)
        .output()
        .expect("run the trace bin")
}

fn code(args: &[&str]) -> Option<i32> {
    trace(args).status.code()
}

#[test]
fn a_bad_command_line_exits_2() {
    assert_eq!(code(&[]), Some(2));
    assert_eq!(code(&["paths", "--check"]), Some(2));
    assert_eq!(code(&["health"]), Some(2), "no --dir");
    assert_eq!(code(&["health", "127.0.0.1:1"]), Some(2), "nothing to dial");
    assert_eq!(code(&["health", "--dir", "/nonexistent/deploy"]), Some(2));
    assert_eq!(code(&["collect", "--dir", "/nonexistent/deploy"]), Some(2));
    assert_eq!(code(&["collect"]), Some(2), "no --dir");
    assert_eq!(
        code(&["collect", "127.0.0.1:1"]),
        Some(2),
        "nothing to drain"
    );
}

#[test]
fn health_reads_metrics_files_alone() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let metrics = std::fs::read_to_string(repo.join("results/cluster_metrics.txt")).unwrap();
    let root = std::env::temp_dir().join(format!("algorand-health-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for i in 0..2 {
        let dir = root.join(format!("n{i}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("addr"), format!("127.0.0.1:900{i}\n")).unwrap();
        std::fs::write(dir.join("metrics.txt"), &metrics).unwrap();
    }
    let dir = root.to_str().unwrap();
    let health = || trace(&["health", "--dir", dir, "--interval-ms", "0"]);

    let out = health();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("nodes=2 unreadable=0"), "{stdout}");
    assert_eq!(
        code(&["health", "--interval-ms", "soon", "--dir", dir]),
        Some(2)
    );

    std::fs::remove_file(root.join("n1/metrics.txt")).unwrap();
    let out = health();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("UNREADABLE"));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn check_file_fails_a_merged_trace_that_dropped_an_event() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let clean = std::fs::read_to_string(root.join("results/cluster_trace.jsonl")).unwrap();
    let dir = std::env::temp_dir().join(format!("algorand-trace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (clean_file, dropped_file) = (dir.join("clean.jsonl"), dir.join("dropped.jsonl"));
    std::fs::write(&clean_file, &clean).unwrap();
    std::fs::write(
        &dropped_file,
        clean.replacen("\"dropped\":0", "\"dropped\":1", 1),
    )
    .unwrap();

    assert_eq!(code(&["check", clean_file.to_str().unwrap()]), Some(0));
    let out = trace(&["check", dropped_file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout)
        .contains("trace check: FAILED (trace truncated: 1 events dropped)"));
    std::fs::remove_dir_all(&dir).unwrap();
}
