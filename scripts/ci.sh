#!/usr/bin/env bash
# Full CI gate: formatting, release build, every test in the workspace,
# and clippy with warnings denied. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --release --workspace
cargo test -q --release --workspace
# The vendored serde/serde_json stand-ins are path patches, not
# workspace members, so `--workspace` skips their tests; every trace
# goes through this codec.
cargo test -q --release -p serde -p serde_json
cargo clippy --release --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
# Observability overhead contract: disabled-registry instrumentation
# must stay at relaxed-atomic cost on the bench_stream hot path.
cargo run --release -p btpan-bench --bin repro_obs_overhead
# Throughput smoke: campaign, multi-piconet and collect/stream rows,
# failing unless trace re-export after import is byte-identical. The
# report goes to stdout.
cargo run --release -p btpan-bench --bin repro_bench -- --quick
# Topology gate: the two-testbed `paper-both` preset must reproduce the
# legacy single-testbed Table 4 substrate (failure counters + TTF/TTR
# series) bit for bit per testbed at a fixed seed, and the 3-piconet
# scatternet smoke campaign must run deterministically with
# inter-piconet propagation visible in the relationship matrix.
cargo run --release -p btpan-bench --bin repro_topology -- --quick
# Self-tests of the benchmark harness's statistics.
python3 -m unittest discover -s perfbench/tests

echo "ci: all gates passed"
