#!/usr/bin/env bash
# A/B-compares two revisions on the benchmark:
#
#   bench/ab.sh BASE HEAD [pairs] [bench flags...]
#   bench/ab.sh HEAD~1 HEAD 10 -seed 7 -workload grid-collectives
#
# Each revision is exported with `git archive` into a temporary directory
# and built once. The script then runs `pairs` (default 10) pairs with
# identical flags, alternating which side runs first, and prints
# `bench -compare`, which applies the bounds in HEAD's BENCHMARK.json.
# Both revisions must contain bench/. Exits with -compare's status: 1
# when any end-to-end metric is worse or unresolved.
set -euo pipefail
if [[ $# -lt 2 ]]; then
	echo "usage: bench/ab.sh BASE HEAD [pairs] [bench flags...]" >&2
	exit 2
fi
base=$1 head=$2
shift 2
pairs=10
if [[ $# -gt 0 && $1 =~ ^[0-9]+$ ]]; then
	pairs=$1
	shift
fi
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/tmp"

for side in base head; do
	sha=$(git -C "$root" rev-parse --verify "${!side}^{commit}")
	mkdir -p "$work/$side/src"
	git -C "$root" archive "$sha" | tar -x -C "$work/$side/src"
	go -C "$work/$side/src/bench" build -ldflags "-X main.commit=$sha" -o "$work/$side/bench" .
	echo "ab: $side = ${!side} ($sha)" >&2
done

for i in $(seq 1 "$pairs"); do
	order="base head"
	if ((i % 2 == 0)); then
		order="head base"
	fi
	for side in $order; do
		echo "ab: pair $i/$pairs: $side" >&2
		(cd "$work/$side/src" && TMPDIR="$work/tmp" "$work/$side/bench" -out "$work/$side-$(printf %03d "$i").json" "$@" >/dev/null)
	done
done

cd "$work/head/src"
"$work/head/bench" -compare "$work"/base-*.json -- "$work"/head-*.json
