//! Hostile trace files: `trace check FILE` and `trace collect` read
//! trace files from disk, so every reader must answer a damaged file
//! with `Ok` or `Err` — never a panic, never a hang. Seeded mutations of
//! the frozen cluster trace (`results/cluster_trace.jsonl`) go through
//! both paths: the merged file through `parse_merged`, and per-node
//! files cut from it through `parse_jsonl` and `merge`; whatever loads
//! is then judged by `Merged::problems` under the cluster gate and
//! rendered by `render_report`.

use algorand_obs::merge::{merge, parse_merged, render_report, Merged, NodeTrace};
use algorand_obs::{parse_jsonl, write_jsonl, Gate, TraceEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

const FIXTURE: &str = include_str!("../../../results/cluster_trace.jsonl");
/// Mutations per path.
const CASES: u64 = 256;
/// How long one case may take, both paths together.
const LIMIT: Duration = Duration::from_secs(30);
/// Timestamps a mutation plants: 2^61 (the merge's clock bound), 2^63
/// (where a cast to `i64` wraps), `u64::MAX`, and one past it.
const HUGE: [&str; 4] = [
    "2305843009213693952",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
];

/// splitmix64: the campaign is a pure function of its seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// One mutation of `text`, named for the failure message.
fn mutate(text: &str, rng: &mut Rng) -> (String, String) {
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let n = lines.len();
    let what = match rng.below(6) {
        0 => {
            let mut cut = rng.below(text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return (format!("prefix of {cut} bytes"), text[..cut].to_string());
        }
        1 => {
            let i = rng.below(n);
            lines.remove(i);
            format!("line {i} dropped")
        }
        2 => {
            let i = rng.below(n);
            lines.insert(i, lines[i].clone());
            format!("line {i} duplicated")
        }
        3 => {
            let (i, j) = (rng.below(n), rng.below(n));
            lines.swap(i, j);
            format!("lines {i} and {j} swapped")
        }
        kind => {
            let i = 1 + rng.below(n - 1);
            let field = ["start", "end", "id", "cause"][rng.below(4)];
            let pat = format!("\"{field}\":");
            let at = lines[i].find(&pat).expect("every event has the field") + pat.len();
            let len = lines[i][at..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(0);
            if kind == 4 && len > 0 {
                let pos = at + rng.below(len);
                let digit = (b'0' + rng.below(10) as u8) as char;
                lines[i].replace_range(pos..=pos, &digit.to_string());
                format!("line {i}: a digit of {field} set to {digit}")
            } else {
                let huge = HUGE[rng.below(HUGE.len())];
                lines[i].replace_range(at..at + len, huge);
                format!("line {i}: {field} = {huge}")
            }
        }
    };
    (what, lines.join("\n") + "\n")
}

/// Judges and renders whatever loaded.
fn judge(merged: &Merged) {
    let _ = merged.problems(&Gate::CLUSTER);
    let _ = render_report(merged);
}

/// The fixture cut into per-node exit files, one `node=<i>` trace each.
fn node_files(merged: &Merged) -> Vec<(u32, String)> {
    merged
        .nodes
        .iter()
        .map(|meta| {
            let events: Vec<TraceEvent> = merged
                .events
                .iter()
                .filter(|ev| ev.node == meta.node)
                .cloned()
                .collect();
            let schedule = format!("node={}", meta.node);
            (meta.node, write_jsonl(merged.seed, &schedule, 0, &events))
        })
        .collect()
}

/// One case on both paths: the merged file mutated, then one node's
/// exit file mutated and merged with the others.
fn run_case(case: u64, files: &[(u32, String)]) -> Result<(), String> {
    let mut rng = Rng(case);
    let (what, text) = mutate(FIXTURE, &mut rng);
    catch_unwind(|| {
        if let Ok(merged) = parse_merged(&text) {
            judge(&merged);
        }
    })
    .map_err(|_| format!("case {case}, merged file, {what}: a reader panicked"))?;

    let victim = rng.below(files.len());
    let (what, text) = mutate(&files[victim].1, &mut rng);
    catch_unwind(AssertUnwindSafe(|| {
        let traces: Vec<NodeTrace> = files
            .iter()
            .enumerate()
            .filter_map(|(i, (node, clean))| {
                let text = if i == victim { &text } else { clean };
                let trace = parse_jsonl(text).ok()?;
                let addr = format!("n{node}");
                Some(NodeTrace {
                    node: *node,
                    addr,
                    trace,
                })
            })
            .collect();
        if let Ok(merged) = merge(&traces) {
            judge(&merged);
        }
    }))
    .map_err(|_| format!("case {case}, node {victim}'s file, {what}: a reader panicked"))
}

#[test]
fn mutated_trace_files_give_ok_or_err_in_bounded_time() {
    let clean = parse_merged(FIXTURE).expect("the fixture parses");
    assert!(clean.problems(&Gate::CLUSTER).is_empty());
    let files = node_files(&clean);
    assert_eq!(files.len(), 5);

    // A hung case keeps its thread: the test fails without joining it.
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        for case in 0..CASES {
            if tx.send(run_case(case, &files)).is_err() {
                return;
            }
        }
    });
    for case in 0..CASES {
        match rx.recv_timeout(LIMIT) {
            Ok(outcome) => outcome.unwrap_or_else(|e| panic!("{e}")),
            Err(_) => panic!("case {case} ran past {LIMIT:?}: a reader hangs"),
        }
    }
    worker.join().expect("every case reported");
}
