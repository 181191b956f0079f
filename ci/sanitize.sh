#!/usr/bin/env bash
# Runs cargo tests under AddressSanitizer or ThreadSanitizer.
#
#   ci/sanitize.sh {asan|tsan} [cargo-test args...]
#
# Without test args it runs the smr unit tests (`-p scot-smr --lib`).  The
# nightly toolchain ships the sanitizer runtimes, so no `-Zbuild-std` is
# needed; std itself is therefore uninstrumented, and TSan cannot see the
# synchronisation inside it (std's futex `Mutex` behind the vendored
# `parking_lot`, thread join, channels).  Each mode builds into its own
# target directory, `target/sanitize-<mode>`, so the two never invalidate
# each other or the normal build.  The last line of output is a one-line
# summary: tests passed and sanitizer reports printed.  The exit status is
# cargo's (TSan makes a test binary that printed reports exit 66).
set -uo pipefail

usage() {
    echo "usage: ci/sanitize.sh {asan|tsan} [cargo-test args...]" >&2
    exit 2
}

mode=${1:-}
case "$mode" in
    asan) sanitizer=address ;;
    tsan) sanitizer=thread ;;
    *) usage ;;
esac
shift
[ $# -gt 0 ] || set -- -p scot-smr --lib

root=$(cd "$(dirname "$0")/.." && pwd)
log=$(mktemp)
trap 'rm -f "$log"' EXIT

(
    cd "$root" || exit 1
    CARGO_TARGET_DIR="$root/target/sanitize-$mode" \
        RUSTFLAGS="-Zsanitizer=$sanitizer -Cunsafe-allow-abi-mismatch=sanitizer" \
        ASAN_OPTIONS=detect_leaks=0 \
        cargo +nightly test --offline --no-fail-fast \
        --target x86_64-unknown-linux-gnu "$@"
) 2>&1 | tee "$log"
status=${PIPESTATUS[0]}

passed=$(grep -oE '^test result: .* ([0-9]+) passed' "$log" |
    grep -oE '[0-9]+ passed' | awk '{n += $1} END {print n + 0}')
reports=$(grep -cE '^(WARNING: ThreadSanitizer|==[0-9]+==ERROR: AddressSanitizer)' "$log")
echo "sanitize $mode: $passed tests passed, $reports reports, exit $status"
exit "$status"
