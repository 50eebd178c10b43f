#!/usr/bin/env bash
# Alternating parent/change pairs of the end-to-end benchmark (EXPERIMENTS.md
# "End-to-end trajectory"; method: benchmark/README.md "Using it for a later
# claim").
#
#   scripts/e2e_pairs.sh <parent-bin> <change-bin> <workload> [pairs]
#
# <parent-bin>/<change-bin> are `ffccd-benchmark` executables, each built
# --release from its own checkout into its own CARGO_TARGET_DIR. Pair i runs
# both sides on seed i of the list below (31 and 4242 are the held-out ones),
# the side that goes first alternating, and appends one JSON line per run:
#   {"pair", "seed", "workload", "side", "ran_first", "user_s", "sys_s",
#    "round_ops_per_s": [...], "line": <result line>}
# user_s/sys_s are the run's CPU seconds in user and kernel mode (bash
# `times`, children): a run whose threads sleep and wake on a lock instead of
# working shows it in sys_s. round_ops_per_s lists every round's rate;
# host_ops_per_s in the result line is the best of them.
#
# Environment:
#   E2E_OUT        file to append to (default: stdout)
#   E2E_SECONDS    --seconds per run (default: BENCHMARK.json's run_seconds, 20)
#   E2E_TRACE      --trace value (default 0: end-to-end metrics)
#   E2E_TASKSET    cpu list; both sides run under `taskset -c <list>`
#                  (E2E_TASKSET=0 is the one-core half of the one-core-vs-
#                  two-core table for driver_mt2)
#   E2E_SIM_EQUAL  when 1, fail unless each pair's two sides report
#                  bit-identical sim_cycles_per_op, sim_op_p50_cycles,
#                  sim_op_p99_cycles and frag_ratio_avg (true at equal seed on
#                  kv_churn, kv_read and crash_sweep; not on free-running
#                  driver_mt2)
set -euo pipefail

if [ "$#" -lt 3 ] || [ "$#" -gt 4 ]; then
    sed -n '2,30p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=${4:-10}
seeds=(31 1 5 7 11 12 100 700 800 4242)
out=${E2E_OUT:-/dev/stdout}
seconds=${E2E_SECONDS:-20}
trace=${E2E_TRACE:-0}
pin=()
[ -n "${E2E_TASKSET:-}" ] && pin=(taskset -c "$E2E_TASKSET")
export LC_ALL=C # `times` prints a locale's decimal point
times_file=$(mktemp) out_file=$(mktemp) err_file=$(mktemp)
trap 'rm -f "$times_file" "$out_file" "$err_file"' EXIT

if [ "$pairs" -lt 1 ] || [ "$pairs" -gt "${#seeds[@]}" ]; then
    echo "pairs must be 1..${#seeds[@]}" >&2
    exit 2
fi

# Sets child_user/child_sys to the CPU milliseconds of every child this shell
# has waited for so far. `times` must run in this shell, not in a `$(...)`,
# and prints each as e.g. 1m2.345s.
child_times() {
    local skip user sys
    times >"$times_file"
    { read -r skip && read -r user sys; } <"$times_file"
    child_user=$(to_ms "$user") child_sys=$(to_ms "$sys")
}
to_ms() {
    local min=${1%%m*} sec=${1#*m}
    sec=${sec%s}
    echo $((10#$min * 60000 + 10#${sec%.*} * 1000 + 10#${sec#*.}))
}
as_seconds() { # ms
    printf '%d.%03d' $(($1 / 1000)) $(($1 % 1000))
}

sim_of() {
    grep -oE '"(sim_cycles_per_op|sim_op_p50_cycles|sim_op_p99_cycles|frag_ratio_avg)": \{"value": [^,]+' <<<"$1"
}

for ((i = 0; i < pairs; i++)); do
    seed=${seeds[$i]}
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    declare -A line=()
    for side in "${order[@]}"; do
        bin=$parent
        [ "$side" = change ] && bin=$change
        child_times
        user0=$child_user sys0=$child_sys
        "${pin[@]}" "$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" >"$out_file" 2>"$err_file" || true
        child_times
        # The result is the last stdout line; stderr has one line per round.
        line[$side]=$(tail -n 1 "$out_file")
        rounds=$(sed -nE 's|^ *round [0-9]+: .* ([0-9.]+) ops/s,.*|\1|p' "$err_file" | paste -sd, -)
        case ${line[$side]} in
        '{'*'"failed": 0,'*) ;;
        *)
            echo "pair $i seed $seed $side: run failed or reported failed ops: ${line[$side]}" >&2
            exit 1
            ;;
        esac
        ran_first=false
        [ "$side" = "${order[0]}" ] && ran_first=true
        printf '{"pair": %d, "seed": %d, "workload": "%s", "side": "%s", "ran_first": %s, "user_s": %s, "sys_s": %s, "round_ops_per_s": [%s], "line": %s}\n' \
            "$i" "$seed" "$workload" "$side" "$ran_first" \
            "$(as_seconds $((child_user - user0)))" "$(as_seconds $((child_sys - sys0)))" \
            "$rounds" "${line[$side]}" >>"$out"
    done
    if [ "${E2E_SIM_EQUAL:-0}" = 1 ] && [ "$(sim_of "${line[parent]}")" != "$(sim_of "${line[change]}")" ]; then
        echo "pair $i seed $seed: simulated metrics differ between the sides" >&2
        diff <(sim_of "${line[parent]}") <(sim_of "${line[change]}") >&2 || true
        exit 1
    fi
done
