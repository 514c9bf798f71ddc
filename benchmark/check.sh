#!/usr/bin/env bash
# Format, lint and test the benchmark package. scripts/ci.sh gates the
# root workspace and does not see this one, so it has its own gate.
# Works from any directory; needs no network.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
