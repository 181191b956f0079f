#!/usr/bin/env bash
# Runs cargo tests under AddressSanitizer or ThreadSanitizer.
#
#   ci/sanitize.sh {asan|tsan} [cargo-test args...]
#   ci/sanitize.sh {asan|tsan} all
#
# Without test args it runs the smr unit tests (`-p scot-smr --lib`).  `all`
# runs the named suite set, one cargo invocation per package (a test target
# named on the command line must exist in every `-p` given, so the packages
# cannot share one):
#
#   scot-smr    -p scot-smr --lib
#   scot        -p scot --lib
#   scot-repro  -p scot-repro --test reclamation --test map_semantics
#               --test pool --test range_scan --test set_semantics
#
# The nightly toolchain ships the sanitizer runtimes, so no `-Zbuild-std` is
# needed; std itself is therefore uninstrumented, and TSan cannot see the
# synchronisation inside it (std's futex `Mutex` behind the vendored
# `parking_lot`, thread join, channels).  Each mode builds into its own
# target directory, `target/sanitize-<mode>`, so the two never invalidate
# each other or the normal build.  Each cargo invocation ends with a
# one-line summary: tests passed and sanitizer reports printed; `all` adds a
# total line last.  The exit status is cargo's, or under `all` the first
# failing package's (TSan makes a test binary that printed reports exit 66).
set -uo pipefail

usage() {
    echo "usage: ci/sanitize.sh {asan|tsan} [all | cargo-test args...]" >&2
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

# Runs one cargo test invocation; sets `passed`, `reports` and `status`, and
# prints the summary line under the label `$1`.
suite() {
    local label=$1
    shift
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
    echo "sanitize $mode${label:+ $label}: $passed tests passed, $reports reports, exit $status"
}

if [ "$*" != all ]; then
    suite "" "$@"
    exit "$status"
fi

total_passed=0 total_reports=0 first_status=0 summaries=()
for set in \
    "scot-smr|-p scot-smr --lib" \
    "scot|-p scot --lib" \
    "scot-repro|-p scot-repro --test reclamation --test map_semantics --test pool --test range_scan --test set_semantics"; do
    label=${set%%|*}
    # shellcheck disable=SC2086 # the argument list is split on purpose
    suite "$label" ${set#*|}
    summaries+=("sanitize $mode $label: $passed tests passed, $reports reports, exit $status")
    total_passed=$((total_passed + passed))
    total_reports=$((total_reports + reports))
    [ "$first_status" -ne 0 ] || first_status=$status
done
printf '%s\n' "${summaries[@]}"
echo "sanitize $mode all: $total_passed tests passed, $total_reports reports, exit $first_status"
exit "$first_status"
