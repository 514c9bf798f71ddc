//! Runs the real binary on every workload at tiny size and holds its
//! output to `BENCHMARK.json`: exactly the listed names come out, in
//! order, each finite and carrying its unit, in both passes.

use benchmark::contract::{self, Metric};
use benchmark::json::Json;
use std::process::Command;

fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "19", "--seconds", "20"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn check(workload: &str, trace: &str, listed: &[Metric], never_zero: bool) {
    let doc = run(workload, trace);
    let keys: Vec<&str> = doc
        .members()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert!(doc.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(doc.get("failed").unwrap().as_f64(), Some(0.0));

    let metrics = doc.get("metrics").unwrap().members().unwrap();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(got, want, "{workload} --trace {trace}");
    for ((name, m), listed) in metrics.iter().zip(listed) {
        let value = m.get("value").unwrap().as_f64().unwrap();
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(!never_zero || value > 0.0, "{workload}: {name} = {value}");
        assert_eq!(
            m.get("unit").unwrap().as_str(),
            Some(listed.unit.as_str()),
            "{workload}: {name}"
        );
    }
}

fn both_passes(workload: &str) {
    let c = contract::load();
    assert!(c.workloads.iter().any(|(name, _)| name == workload));
    check(workload, "0", &c.end_to_end, true);
    check(workload, "1", &c.per_layer, false);
    let spans =
        std::fs::read_to_string(benchmark::out_dir().join(format!("trace_{workload}.jsonl")))
            .expect("the traced pass writes its span file");
    assert!(spans.lines().count() > 90);
    for line in spans.lines() {
        let span = Json::parse(line).expect("every span line is JSON");
        let keys: Vec<&str> = span
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["name", "start_us", "end_us", "parent", "workload"]);
        assert_eq!(span.get("workload").unwrap().as_str(), Some(workload));
    }
}

#[test]
fn the_program_knows_exactly_the_contracts_workloads() {
    let c = contract::load();
    let names: Vec<&str> = c.workloads.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, benchmark::workloads::NAMES);
}

// One test per workload so they run side by side; each is its own
// processes and its own directory under out/.

#[test]
fn steady_smoke() {
    both_passes("steady");
}

#[test]
fn saturated_smoke() {
    both_passes("saturated");
}

#[test]
fn scale_smoke() {
    both_passes("scale");
}

#[test]
fn localnet_smoke() {
    both_passes("localnet");
}

#[test]
fn an_unknown_workload_is_refused_without_a_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0"])
        .output()
        .expect("run the benchmark binary");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
