#!/usr/bin/env bash
# Same-host performance gate: is the head revision slower than the base?
#
#   .github/bench-gate.sh <base-rev> [<head-rev>]    (head defaults to HEAD)
#
# Builds expbench (expbench/README.md) at both revisions, each in its own
# git worktree, and runs every workload that the head's BENCHMARK.json
# names as PAIRS alternating base/head pairs of RUN_SECONDS-second runs.
# Pair i runs seed i on both sides, and the side that goes first swaps
# every pair. Each run reports `experiment_s`, its fastest batch. The gate
# fails when, on any workload, the median of the per-pair head/base ratios
# exceeds MAX_RATIO, or when a head run exits non-zero (a cell missed its
# correctness pin). A workload the base does not know is skipped with a
# notice.
#
# The two worktrees sit side by side under one temporary directory, so
# their paths have equal length: source paths are embedded in the binary,
# and a different-length path alone has shifted engine_wide by ~10%.
#
# Sourcing the script defines its functions without running the gate.
set -euo pipefail

PAIRS=30
MAX_RATIO=1.10
RUN_SECONDS=1

# run_once <checkout> <workload> <seed>: print the run's experiment_s and
# return the run's exit status.
run_once() {
    local out status=0
    out=$(cd "$1" && expbench/target/release/expbench --workload "$2" --seed "$3" \
        --seconds "$RUN_SECONDS" --trace 0 2>/dev/null) || status=$?
    awk '$1 == "experiment_s" && $2 == "=" { print $3 }' <<<"$out"
    return "$status"
}

# gate_workload <base checkout> <head checkout> <workload>: print the median
# head/base experiment_s ratio over PAIRS pairs (each pair's ratio goes to
# stderr). Returns non-zero when a head run fails.
gate_workload() {
    local base=$1 head=$2 workload=$3 i b h ratios=()
    for ((i = 1; i <= PAIRS; i++)); do
        if ((i % 2)); then
            b=$(run_once "$base" "$workload" "$i") || true
        fi
        if ! h=$(run_once "$head" "$workload" "$i"); then
            echo "::error::$workload seed $i: head run failed (exit non-zero)" >&2
            return 1
        fi
        if ((i % 2 == 0)); then
            b=$(run_once "$base" "$workload" "$i") || true
        fi
        if [[ -z $b || -z $h ]]; then
            echo "::error::$workload seed $i: no experiment_s in the output" >&2
            return 1
        fi
        ratios+=("$(awk -v h="$h" -v b="$b" 'BEGIN { printf "%.4f", h / b }')")
        echo "  $workload pair $i: head $h s, base $b s, ratio ${ratios[-1]}" >&2
    done
    printf '%s\n' "${ratios[@]}" | sort -g |
        awk '{ r[NR] = $1 } END { printf "%.4f\n", NR % 2 ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2 }'
}

main() {
    if (($# < 1 || $# > 2)); then
        echo "usage: $0 <base-rev> [<head-rev>]" >&2
        exit 2
    fi
    local root work side workloads workload median status failed=0
    root=$(git rev-parse --show-toplevel)
    work=$(mktemp -d)
    # shellcheck disable=SC2064 # expand $root and $work now
    trap "git -C '$root' worktree remove --force '$work/base' 2>/dev/null || true
          git -C '$root' worktree remove --force '$work/head' 2>/dev/null || true
          rm -rf '$work'" EXIT
    git -C "$root" worktree add --quiet --detach "$work/base" "$1"
    git -C "$root" worktree add --quiet --detach "$work/head" "${2:-HEAD}"
    for side in base head; do
        echo "building expbench at $side ($(git -C "$work/$side" rev-parse --short HEAD))"
        cargo build --offline --release --quiet --manifest-path "$work/$side/expbench/Cargo.toml"
    done
    workloads=$(python3 -c 'import json, sys
print(*(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$work/head/BENCHMARK.json")
    for workload in $workloads; do
        # expbench exits 2 on a usage error such as an unknown workload.
        status=0
        (cd "$work/base" && expbench/target/release/expbench --workload "$workload" \
            --seed 0 --seconds 0 --trace 0 >/dev/null 2>&1) || status=$?
        if ((status == 2)); then
            echo "::notice::$workload: unknown to the base revision, skipped"
            continue
        fi
        if ! median=$(gate_workload "$work/base" "$work/head" "$workload"); then
            failed=1
        elif awk -v m="$median" -v t="$MAX_RATIO" 'BEGIN { exit !(m > t) }'; then
            echo "::error::$workload: median head/base experiment_s ratio $median exceeds $MAX_RATIO"
            failed=1
        else
            echo "$workload: median head/base experiment_s ratio $median (limit $MAX_RATIO, $PAIRS pairs)"
        fi
    done
    exit "$failed"
}

if [[ ${BASH_SOURCE[0]} == "$0" ]]; then
    main "$@"
fi
