#!/usr/bin/env bash
# CI gate for the repository. Fully offline; no network access needed.
#
#   1. tier-1 gate: release build + facade test suite (the invariant
#      every PR must keep green),
#   2. the full workspace test suite (every crate's unit, integration
#      and doc tests),
#   3. a 50-user / 200-transaction end-to-end smoke simulation that
#      fails unless >=95% of injected transactions finalize, each
#      exactly once (see crates/bench/src/bin/txpool_smoke.rs),
#   4. the chaos suite (fixed seeds) plus the determinism gate: every
#      scripted fault schedule is run, traced and monitored, at one
#      worker twice and at 2 and 4 workers; all four runs must produce
#      byte-identical final-chain digests, monitor verdicts and trace
#      JSONL, and recover within the schedule's horizon (see
#      crates/bench/src/bin/chaos_determinism.rs),
#   5. the trace-determinism gate: the same seed traced twice must
#      export byte-identical trace JSONL (with zero dropped events),
#      and tracing on/off must not change the chain digest (see
#      crates/bench/src/bin/trace_report.rs),
#   6. the causal-profiler gate: the critical-path report renders
#      byte-identically across reruns, every chain is contiguous, and
#      every finalized round's chain explains >=95% of its measured
#      latency (see crates/bench/src/bin/critical_path.rs),
#   7. the invariant monitor: all chaos schedules run with the online
#      monitor attached and must report zero violations (asserted
#      inside the chaos suite of step 4), while the violation-injection
#      self-test must flag every seeded violation class (see
#      crates/sim/tests/monitor.rs),
#   8. the localnet gate: five real `algorand-node` processes over
#      loopback TCP must finalize the exact chain digest the simulator
#      produces for the same seed, and a kill -9'd process must rejoin
#      via WAL replay plus blocksync; mid-run, every process must answer
#      a TELEMETRY scrape with a clean in-process monitor verdict and
#      non-zero transport/WAL/pipeline counters (the merged report lands
#      in results/cluster_health.txt), and the SIGKILL'd process must
#      leave no crash.jsonl; the same run drains every process's trace
#      buffer over TRACE_DRAIN, merges them into one causal cluster
#      trace (results/cluster_trace.{jsonl,txt}), and requires the
#      merged critical path to explain >=90% of each finalized round
#      with at least one cross-process chain (see
#      crates/bench/src/bin/{localnet,trace_collect}.rs),
#   8b. the telemetry-smoke gate: two TELEMETRY scrapes of an idle node
#      must return byte-identical exposition text, its flight-recorder
#      dump must parse as ordinary trace JSONL, and a connection
#      hammering past the configured burst must get TEL_THROTTLED
#      error frames while fresh connections stay served (see
#      crates/bench/src/bin/telemetry_smoke.rs),
#   8c. the cluster-trace gate: the merged artifact the localnet run
#      archived must re-parse, re-render byte-identically, and pass the
#      merged critical-path checks offline (see
#      crates/bench/src/bin/critical_path.rs, --trace mode),
#   9. the scale gate: 1,000 real protocol nodes must finalize >=5
#      rounds in the CI wall-clock budget, with identical digests at
#      1 and 4 workers (their wall-clock ratio is reported, not
#      gated); numbers land in results/scale.txt (see
#      crates/bench/src/bin/scale_smoke.rs),
#  10. the epidemic-validation gate: the analytic large-scale model must
#      agree with the real engine at 100-1,000 users within a factor
#      band; the table lands in results/epidemic_vs_des.txt (see
#      crates/bench/src/bin/epidemic_vs_des.rs),
#  11. the schedule-space fuzzing gate: 1,000 generated (seed, schedule)
#      pairs must pass every oracle on the honest build, the whole
#      campaign report must be byte-identical when re-run, and a planted
#      catch-up defect must be caught and shrunk to a <=8-event
#      reproducer that replays deterministically (see
#      crates/bench/src/bin/fuzz_campaign.rs); the archived corpus under
#      crates/sim/tests/corpus/ must replay with its recorded verdicts
#      and the shrinker property test must hold (see
#      crates/sim/tests/{corpus,fuzz}.rs),
#  12. style gates: rustfmt and clippy with warnings denied.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== style: cargo fmt --check =="
cargo fmt --check

echo "== style: cargo clippy (deny warnings) =="
cargo clippy --workspace -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== workspace tests =="
cargo test --workspace -q

echo "== txpool smoke simulation =="
cargo run --release -p algorand-bench --bin txpool_smoke

echo "== chaos suite (fixed seeds) =="
cargo test --release -q -p algorand-sim --test chaos

echo "== chaos determinism (1, 1 replay, 2, 4 workers) + recovery check =="
cargo run --release -p algorand-bench --bin chaos_determinism

echo "== trace determinism gate =="
cargo run --release -p algorand-bench --bin trace_report -- --check

echo "== causal critical-path gate =="
cargo run --release -p algorand-bench --bin critical_path -- --check

echo "== invariant monitor: baseline + violation-injection self-test =="
cargo test --release -q -p algorand-sim --test monitor

echo "== localnet: 5 real processes vs simulator digest, kill -9 rejoin, live scrape + trace drain =="
cargo build --release -q -p algorand-node
cargo build --release -q -p algorand-bench --bin trace_collect
cargo run --release -p algorand-bench --bin localnet

echo "== telemetry smoke: idle-node scrapes byte-identical, flight dump parses, throttle trips =="
cargo run --release -p algorand-bench --bin telemetry_smoke

echo "== cluster trace: merged artifact re-checks offline =="
cargo run --release -p algorand-bench --bin critical_path -- --trace results/cluster_trace.jsonl --check

echo "== engine: 1000-node scale smoke =="
cargo run --release -p algorand-bench --bin scale_smoke

echo "== epidemic model vs real engine (100-1000 users) =="
cargo run --release -p algorand-bench --bin epidemic_vs_des

echo "== schedule-space fuzzer: 1000-case campaign + determinism + bug-injection =="
cargo run --release -p algorand-bench --bin fuzz_campaign -- --budget 1000 --seed 42 --check

echo "== fuzz corpus replay + shrinker property test =="
cargo test --release -q -p algorand-sim --test corpus --test fuzz -- --include-ignored

echo "== CI OK =="
