#!/usr/bin/env bash
# Alternating before/after pairs of satbench runs: the evidence behind a
# host-time claim.
#
#   ci/pairs.sh <dir-a> <dir-b> --workload W --seed S --pairs N [--seconds T]
#
# W is one workload, a comma-separated list of them
# (`suite_steady,binder_ipc`), or `all`: every workload of A's
# BENCHMARK.json, in its order. Each gets the whole procedure below in
# turn.
#
# <dir-a> and <dir-b> are two checkouts of this repository (A the
# parent, B the change). Each side's benchmark is built in its own
# checkout (`benchmark/target/release/satbench`), then run N times per
# side in the form BENCHMARK.json's command takes — `--workload W --seed
# S --seconds T --trace 0`, T defaulting to its `run_seconds`, 10 —
# alternating A, B, A, B, … so drift of the machine hits both alike.
#
# For each end-to-end metric of A's BENCHMARK.json it prints A's and B's
# medians, the change of B's against A's, A's quartiles (q1–q3, by the
# exclusive rule satbench's own summaries use), in how many pairs B was
# better than A, and whether B's median lies outside A's quartiles.
# A gain counts when B wins at least nine pairs of ten and its median
# lies outside A's quartiles.
#
# Last, one `satbench rep` per side at the same workload and seed says
# whether the two simulate the same machine: the script exits 1 when the
# `sim_digest`s of any workload differ.
set -euo pipefail

usage() {
    echo "usage: ci/pairs.sh <dir-a> <dir-b> --workload W[,W...]|all --seed S --pairs N [--seconds T]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
a="$1" b="$2"
shift 2
workload="" seed="" pairs="" seconds=10
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --pairs) pairs="$2" ;;
        --seconds) seconds="$2" ;;
        *) usage ;;
    esac
    shift 2
done
[ -n "$workload" ] && [ -n "$seed" ] && [ -n "$pairs" ] || usage
[ "$pairs" -ge 1 ] 2>/dev/null || usage

if [ "$workload" = all ]; then
    workloads="$(grep '"why"' "$a/BENCHMARK.json" | sed 's/.*"name": "\([a-z_]*\)".*/\1/')"
else
    workloads="$(echo "$workload" | tr ',' ' ')"
fi

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

for dir in "$a" "$b"; do
    cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
done

# The end-to-end metrics and which end is better, in BENCHMARK.json's
# order (its `end_to_end` rows are the ones with a `bound`).
grep '"bound"' "$a/BENCHMARK.json" |
    sed 's/.*"name": "\([a-z_]*\)".*"better": "\([a-z]*\)".*/\1 \2/' > "$out/directions"

# `metrics W SIDE DIR`: one run of workload W in that form; appends
# `name value` lines from its last line, the contract JSON, to
# $out/W.SIDE.
metrics() {
    "$3/benchmark/target/release/satbench" --workload "$1" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1 |
        grep -o '"[a-z_]*": {"value": [^,}]*' |
        sed 's/^"\([a-z_]*\)": {"value": /\1 /' >> "$out/$1.$2"
}

# `table W`: the medians, quartiles and wins of workload W's runs.
table() {
    awk -v pairs="$pairs" '
        # The quantile at p of sorted x[1..n], Python `statistics.quantiles`
        # method="exclusive", as benchmark/src/stats.rs computes it.
        function quantile(x, n, p,    pos, j, d) {
            if (n == 1) return x[1]
            pos = p * (n + 1)
            j = int(pos)
            if (j < 1) j = 1
            if (j > n - 1) j = n - 1
            d = pos - j
            return x[j] * (1 - d) + x[j + 1] * d
        }
        function sort(x, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && x[j - 1] > x[j]; j--) {
                    t = x[j]; x[j] = x[j - 1]; x[j - 1] = t
                }
        }
        FILENAME ~ /directions$/ { order[++m] = $1; better[$1] = $2; next }
        {
            side = FILENAME ~ /\.a$/ ? "a" : "b"
            k = side SUBSEP $1
            val[k, ++count[k]] = $2
        }
        END {
            printf "%-14s %12s %12s %9s %25s %6s %s\n",
                "metric", "A median", "B median", "change", "A q1..q3", "B wins", "B outside A q1..q3"
            for (i = 1; i <= m; i++) {
                name = order[i]
                ka = "a" SUBSEP name; kb = "b" SUBSEP name
                if (count[ka] != pairs || count[kb] != pairs) {
                    printf "%-14s missing from a run\n", name
                    continue
                }
                wins = 0
                for (r = 1; r <= pairs; r++) {
                    xa[r] = val[ka, r]; xb[r] = val[kb, r]
                    if (better[name] == "lower" ? xb[r] < xa[r] : xb[r] > xa[r]) wins++
                }
                sort(xa, pairs); sort(xb, pairs)
                ma = quantile(xa, pairs, 0.5); mb = quantile(xb, pairs, 0.5)
                q1 = quantile(xa, pairs, 0.25); q3 = quantile(xa, pairs, 0.75)
                change = ma == 0 ? "n/a" : sprintf("%+.1f%%", 100 * (mb - ma) / ma)
                printf "%-14s %12.6g %12.6g %9s %25s %3d/%-2d %s\n", name, ma, mb, change,
                    sprintf("%.6g..%.6g", q1, q3), wins, pairs,
                    (mb < q1 || mb > q3) ? "yes" : "no"
            }
        }
    ' "$out/directions" "$out/$1.a" "$out/$1.b"
}

# `digest W DIR`: the sim_digest of one bench-sized rep of workload W.
digest() {
    "$2/benchmark/target/release/satbench" rep --workload "$1" --seed "$seed" |
        sed -n 's/.*, sim_digest //p'
}

status=0
for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        echo "$w: pair $i of $pairs" >&2
        metrics "$w" a "$a"
        metrics "$w" b "$b"
    done
    echo "$w, seed $seed, $pairs pairs at --seconds $seconds; A = $a, B = $b"
    table "$w"
    digest_a="$(digest "$w" "$a")"
    digest_b="$(digest "$w" "$b")"
    if [ "$digest_a" = "$digest_b" ]; then
        echo "sim_digest: equal ($digest_a)"
    else
        echo "sim_digest: DIFFERENT (A $digest_a, B $digest_b)"
        status=1
    fi
done
exit "$status"
