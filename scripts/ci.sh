#!/usr/bin/env bash
# CI gate for the repository. Fully offline; no network access needed.
# Each gate's `== … ==` line says what it checks; the bin or test it
# runs documents the details, and results/README.md the artifacts.
#
# Usage: scripts/ci.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

# No gate may write into the checkout (benchmark/Cargo.lock included):
# the last gate compares the tree with this snapshot.
status_before=$(git status --porcelain)
diff_before=$(git diff HEAD | sha256sum)

echo "== style: cargo fmt --check =="
cargo fmt --check

echo "== style: cargo clippy, test and bench targets included (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs: rustdoc on every crate, no broken or private intra-doc links (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== workspace tests (incl. the figure predicates on broken rows and the figures/trace CLIs, crates/bench) =="
cargo test --workspace -q

echo "== crypto tests, release build (limb arithmetic wraps silently there and debug_assert! is compiled out) =="
cargo test --release -q -p algorand-crypto

echo "== relay dedup: fingerprint tables vs the exact sets they replaced, release build (the arithmetic the simulator runs) =="
cargo test --release -q -p algorand-gossip --test relay_differential

echo "== event calendar: packed 16-byte records vs a reference heap, release build (the arithmetic the simulator runs) =="
cargo test --release -q -p algorand-sim --lib des::queue

echo "== benchmark package: fmt, clippy, tests against this workspace's API =="
bash benchmark/check.sh

echo "== pinned results: all 15 figures (fig3-fig8, tput, costs, ba_steps, timeouts, 4 ablations, epidemic_vs_des) reprint results/<name>.txt byte for byte and keep their paper claims; trace report and paths reprint theirs =="
cargo run --release -q -p algorand-bench --bin figures -- check
cargo run --release -q -p algorand-bench --bin trace -- report | diff results/trace_report.txt -
cargo run --release -q -p algorand-bench --bin trace -- paths | diff results/critical_path.txt -

echo "== chaos suite: every chaos_table row passes the fuzz oracle, and its faults bite =="
cargo test --release -q -p algorand-sim --test chaos

echo "== chaos determinism: every chaos_table row judged at 1, 1 replay, 2, 4 workers; reprints results/chaos.txt byte for byte =="
cargo run --release -q -p algorand-bench --bin chaos_determinism | diff results/chaos.txt -

echo "== trace gate: tracing invisible and replayable, critical paths contiguous and covering =="
cargo run --release -p algorand-bench --bin trace -- check

echo "== invariant monitor: baseline + violation-injection self-test =="
cargo test --release -q -p algorand-sim --test monitor

echo "== localnet: 5 real processes vs simulator digest, kill -9 rejoin, mid-run metrics.txt (full key checks, key combs <= distinct keys, transport.peers = N-1 and no peer= label) + cluster trace merged from the processes' exit files, every clock on >= 3 anchors, >= 5 rounds profiled, the written merged trace re-checked as trace check FILE does; each WAL reopens to consecutive entry records only, as many as the node wrote, none larger than the biggest entry =="
cargo build --release -q -p algorand-node
cargo run --release -p algorand-bench --bin localnet

echo "== schedule-space fuzzer: 1000-case campaign + determinism + bug-injection; reprints results/fuzz.txt byte for byte, its host-timing line aside =="
cargo run --release -p algorand-bench --bin fuzz_campaign -- --budget 1000 --seed 42 --check \
    | grep -v '^honest leg:' | diff <(grep -v '^honest leg:' results/fuzz.txt) -

echo "== fuzz corpus replay + shrinker property test =="
cargo test --release -q -p algorand-sim --test corpus --test fuzz -- --include-ignored

echo "== engine: 1000-node scale smoke (the slowest gate, so it runs last) =="
cargo run --release -p algorand-bench --bin scale_smoke

echo "== checkout: no gate changed a tracked file or left an untracked one =="
if [ "$(git status --porcelain)" != "$status_before" ] || [ "$(git diff HEAD | sha256sum)" != "$diff_before" ]; then
    echo "the run changed the checkout:"
    diff <(echo "$status_before") <(git status --porcelain) || true
    git diff HEAD --stat
    exit 1
fi

echo "== CI OK =="
