#!/usr/bin/env bash
# bench_check.sh — CI's kernel timing gate.
#
# Times internal/sim's BenchmarkKernelEvents, the kernel's pure
# event-loop cost, in runs of 0.05 s and fails when the best of 200 runs
# is more than 10% slower than the baseline below. Load from other
# processes only ever adds time, so the best run is the reading closest
# to the kernel's own cost, and on a shared machine short runs catch the
# quiet moments that long ones average away. The gate stops at the
# first run within the bound: that is the verdict of the best of 200,
# and a passing tree usually needs a few runs, a failing one ≈25 s.
#
# The other half of the regression gate, the paper matrix's allocations,
# is deterministic and needs no timing: internal/exp's
# TestPaperMatrixAllocs locks it in every `go test`.
#
# Usage:
#   scripts/bench_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# KernelEvents ns/op at commit b34d794 (BENCH_PR24.json, "after"),
# measured on a 2-vCPU Xeon.
baseline=26.98

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
go test -c -o "$dir/sim.test" ./internal/sim

best=
for run in $(seq 200); do
    out=$("$dir/sim.test" -test.run '^$' -test.bench '^BenchmarkKernelEvents$' -test.benchtime 0.05s) ||
        { printf '%s\n' "$out" >&2; exit 1; }
    ns=$(awk '/^BenchmarkKernelEvents/ && $4 == "ns/op" { print $3 }' <<<"$out")
    if [[ -z "$ns" ]]; then
        printf '%s\nbench_check: no KernelEvents ns/op in the output above\n' "$out" >&2
        exit 1
    fi
    if awk -v ns="$ns" -v base="$baseline" 'BEGIN { exit !(ns + 0 <= base * 1.10) }'; then
        echo "bench_check: ok KernelEvents ns/op: $ns vs baseline $baseline (b34d794), run $run of at most 200"
        exit 0
    fi
    best=$(awk -v a="$ns" -v b="${best:-$ns}" 'BEGIN { print (a + 0 < b + 0 ? a : b) }')
done
echo "bench_check: REGRESSION KernelEvents ns/op: best of 200 runs $best vs baseline $baseline (b34d794, tolerance x1.10)" >&2
exit 1
