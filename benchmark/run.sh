#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repo root.
# With no arguments: every workload, untraced then traced, every metric
# printed.  See README.md here, or run with --help, for the other forms.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --offline --release --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/scot-benchmark" "$@"
