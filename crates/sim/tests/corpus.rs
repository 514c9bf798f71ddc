//! Replays the archived fuzz corpus.
//!
//! Every `tests/corpus/*.repro` file is a minimal reproducer in the
//! textual `algorand-fuzz-repro v1` format, recorded when the fuzzer
//! found something worth keeping forever:
//!
//! - `ignore_catchup_responses_*.repro` — the shrunk schedule that
//!   exposes the planted catch-up defect (the CI gate's shrinker
//!   acceptance case); it must still fail, in the recorded way, when the
//!   defect is re-planted.
//! - `fork_minority_rejoin.repro` — the honest-build schedule on which
//!   the fuzzer found a real liveness bug: an asymmetric partition forked
//!   round 2 into two tentatively-certified blocks and the minority side
//!   could never rejoin, because plain catch-up serves certificates that
//!   bind the majority's previous-block hash. Fixed by fork-point
//!   catch-up with a tentative-suffix reorg; the case must keep passing.
//! - `recovery_deadlock_healed_partition.repro` — a second real bug from
//!   the 1000-case campaign: after a healed symmetric partition left two
//!   camps deadlocked in the same round, §8.2 recovery armed but never
//!   completed, because (a) fork proposals extended observed-but-
//!   never-agreed proposal-race blocks the other camp could not
//!   evaluate, and (b) retried recovery votes landed in relay slots
//!   frozen by the stall and were dropped as equivocations. Fixed by
//!   measuring `longest_fork` over agreed blocks only and rotating
//!   relay generations on a stall horizon; the case must keep passing.
//! - `tentative_fork_crash.repro` — a crash across a §8.2 tentative
//!   fork: an asymmetric partition leaves node 8, on the minority side,
//!   holding a tentative round 3 the majority never adopted; node 8
//!   crashes before the heal and restarts after it. A crash keeps only
//!   the finalized prefix (what a real node's WAL holds), so the
//!   restarted node holds nothing a reorg would have to displace and
//!   rejoins through catch-up; the case must keep passing.
//!
//! Replays run the full oracle, so this suite is release-only (the
//! debug-build event loop is an order of magnitude slower); the CI fuzz
//! gate runs it with `--include-ignored`.

use algorand_sim::fuzz::{parse_case, run_case};
use algorand_sim::Simulation;
use std::fs;

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: replays full fuzz cases")]
fn corpus_reproducers_replay_with_recorded_verdicts() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut paths: Vec<_> = fs::read_dir(dir)
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("repro"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "the corpus must not be empty");
    for path in paths {
        let text = fs::read_to_string(&path).expect("readable reproducer");
        let (case, expected) =
            parse_case(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let verdict = run_case(&case);
        assert_eq!(
            verdict.class,
            expected,
            "{}: recorded verdict drifted",
            path.display()
        );
    }
}

#[test]
fn corpus_files_parse_and_roundtrip() {
    // Cheap structural half of the replay test, kept active in debug
    // builds: every archived file parses, and re-serializing the parsed
    // case reproduces the file byte-for-byte (so hand edits that would
    // silently change the schedule are caught immediately).
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    for entry in fs::read_dir(dir).expect("corpus directory") {
        let path = entry.expect("corpus entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("repro") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable reproducer");
        let (case, verdict) =
            parse_case(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let again = algorand_sim::fuzz::serialize_case(&case, verdict);
        assert_eq!(text, again, "{}: not in canonical form", path.display());
    }
}

#[test]
fn tentative_fork_crash_crashes_a_node_holding_a_tentative_round() {
    // The case means something only if the crash drops a round: play it
    // to just before node 8 goes down and look at its chain.
    let text = include_str!("corpus/tentative_fork_crash.repro");
    let (case, _) = parse_case(text).expect("parses");
    let mut sim = Simulation::new(case.config());
    sim.set_fault_schedule(case.schedule.clone());
    sim.run_until(12_000_000 - 1);
    let chain = sim.honest_node(8).chain();
    assert!(
        chain.tip().round >= 3,
        "node 8 agreed on nothing past round 2"
    );
    assert!(
        !chain.is_finalized(chain.tip().round),
        "node 8's tip is already final"
    );
}
