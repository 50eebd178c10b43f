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
#   {"pair", "seed", "workload", "side", "ran_first", "line": <result line>}
#
# Environment:
#   E2E_OUT        file to append to (default: stdout)
#   E2E_SECONDS    --seconds per run (default: BENCHMARK.json's run_seconds, 20)
#   E2E_TRACE      --trace value (default 0: end-to-end metrics)
#   E2E_SIM_EQUAL  when 1, fail unless each pair's two sides report
#                  bit-identical sim_cycles_per_op, sim_op_p50_cycles,
#                  sim_op_p99_cycles and frag_ratio_avg (true at equal seed on
#                  kv_churn, kv_read and crash_sweep; not on free-running
#                  driver_mt2)
set -euo pipefail

if [ "$#" -lt 3 ] || [ "$#" -gt 4 ]; then
    sed -n '2,22p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=${4:-10}
seeds=(31 1 5 7 11 12 100 700 800 4242)
out=${E2E_OUT:-/dev/stdout}
seconds=${E2E_SECONDS:-20}
trace=${E2E_TRACE:-0}

if [ "$pairs" -lt 1 ] || [ "$pairs" -gt "${#seeds[@]}" ]; then
    echo "pairs must be 1..${#seeds[@]}" >&2
    exit 2
fi

# Runs one side; echoes the benchmark's result line (its last stdout line).
run_side() { # bin seed
    "$1" run --workload "$workload" --seed "$2" --seconds "$seconds" --trace "$trace" \
        2>/dev/null | tail -n 1
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
        line[$side]=$(run_side "$bin" "$seed")
        case ${line[$side]} in
        '{'*'"failed": 0,'*) ;;
        *)
            echo "pair $i seed $seed $side: run failed or reported failed ops: ${line[$side]}" >&2
            exit 1
            ;;
        esac
        ran_first=false
        [ "$side" = "${order[0]}" ] && ran_first=true
        printf '{"pair": %d, "seed": %d, "workload": "%s", "side": "%s", "ran_first": %s, "line": %s}\n' \
            "$i" "$seed" "$workload" "$side" "$ran_first" "${line[$side]}" >>"$out"
    done
    if [ "${E2E_SIM_EQUAL:-0}" = 1 ] && [ "$(sim_of "${line[parent]}")" != "$(sim_of "${line[change]}")" ]; then
        echo "pair $i seed $seed: simulated metrics differ between the sides" >&2
        diff <(sim_of "${line[parent]}") <(sim_of "${line[change]}") >&2 || true
        exit 1
    fi
done
