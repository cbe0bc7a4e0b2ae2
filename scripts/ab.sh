#!/usr/bin/env bash
# A/B of this working tree against another revision, with code placement
# held fixed:
#
#   scripts/ab.sh <rev> [benchmark/run.sh arguments...]
#
# <rev> (the parent) is checked out with `git archive` into a temporary
# directory, so .git is left as it is. Both trees' benchmark/ are built
# with every function aligned to 64 bytes: a change off a workload's path
# can then not move it by shifting the code that is on it. The script runs
# 10 alternating pairs of benchmark/run.sh (pair i runs the parent first
# when i is even, the change first when it is odd), both sides of pair i
# with seed S + i. S is run.sh's own --seed if one is given, else 1; every
# other argument goes to run.sh as it is (e.g. --workload exec_hot,
# --seconds 5).
#
# It prints one row per workload x end-to-end metric: the change/parent
# ratio of the medians, the pairs the change won (by the direction
# BENCHMARK.json declares) and each side's interquartile spread as a share
# of its median. It exits non-zero if any run fails, any operation fails,
# or any sim_slowdown differs between the two sides.
set -euo pipefail
cd "$(dirname "$0")/.."

PAIRS=10
ALIGN="-C llvm-args=-align-all-functions=6"

if [ $# -lt 1 ]; then
    echo "usage: scripts/ab.sh <rev> [benchmark/run.sh arguments...]" >&2
    exit 2
fi
rev="$1"
shift
seed=1
args=()
while [ $# -gt 0 ]; do
    if [ "$1" = "--seed" ] && [ $# -ge 2 ]; then
        seed="$2"
        shift 2
    else
        args+=("$1")
        shift
    fi
done

tmp="$(mktemp -d)"
mkdir "$tmp/parent"
git archive "$(git rev-parse --verify "$rev^{commit}")" | tar -x -C "$tmp/parent"
echo "ab: parent $rev ($(git rev-parse --short "$rev")) in $tmp/parent; change: this working tree"

# run_side <tree> <name> <seed> <out>: one benchmark/run.sh of <tree>, built
# into its own target directory with the pinned alignment.
run_side() {
    RUSTFLAGS="$ALIGN" CARGO_TARGET_DIR="$tmp/target-$2" \
        bash "$1/benchmark/run.sh" --seed "$3" ${args[@]+"${args[@]}"} > "$4" || {
        echo "ab: FAIL: $2 run (seed $3) exited non-zero; output in $4" >&2
        touch "$tmp/run-failed"
    }
}

for ((i = 0; i < PAIRS; i++)); do
    s=$((seed + i))
    if ((i % 2 == 0)); then
        run_side "$tmp/parent" parent "$s" "$tmp/parent-$i.txt"
        run_side . change "$s" "$tmp/change-$i.txt"
    else
        run_side . change "$s" "$tmp/change-$i.txt"
        run_side "$tmp/parent" parent "$s" "$tmp/parent-$i.txt"
    fi
    echo "ab: pair $((i + 1))/$PAIRS done (seed $s)"
done

# Each run's result lines, as "side pair workload metric value" records,
# plus "side pair workload failed N" (a workload whose result line is
# missing counts as one failed operation).
extract() {
    awk -v side="$1" -v pair="$2" '
        /^metrics of / { w = $3; sub(/:$/, "", w); seen[w] = 0; next }
        /^\{"correct": / {
            line = $0
            failed = line; sub(/.*"failed": /, "", failed); sub(/,.*/, "", failed)
            if (line !~ /^\{"correct": true/ && failed == 0) failed = 1
            print side, pair, w, "failed", failed
            seen[w] = 1
            sub(/.*"metrics": \{/, "", line)
            n = split(line, parts, /\}, /)
            for (k = 1; k <= n; k++) {
                name = parts[k]; sub(/^"/, "", name); sub(/".*/, "", name)
                value = parts[k]; sub(/.*"value": /, "", value); sub(/,.*/, "", value)
                if (name != "") print side, pair, w, name, value
            }
        }
        END { for (w in seen) if (!seen[w]) print side, pair, w, "failed", 1 }
    ' "$3"
}
for ((i = 0; i < PAIRS; i++)); do
    extract parent "$i" "$tmp/parent-$i.txt"
    extract change "$i" "$tmp/change-$i.txt"
done > "$tmp/records.txt"

# Which way is better, per metric, from BENCHMARK.json.
awk '/"name": / { n = $2; gsub(/[",]/, "", n) }
     /"better": / { b = $2; gsub(/[",]/, "", b); print n, b }' BENCHMARK.json > "$tmp/better.txt"

awk -v pairs="$PAIRS" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
            a[j + 1] = t
        }
    }
    # Nearest-rank quantile of the sorted a[1..n].
    function q(a, n, p,    r) { r = int(p * n + 0.999999); if (r < 1) r = 1; return a[r] }
    function median(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
    FNR == NR { better[$1] = $2; next }
    $4 == "failed" { if ($5 + 0 > 0) { failed += $5; print "ab: FAIL: " $1 " pair " $2 " " $3 ": " $5 " failed operation(s)" } next }
    {
        key = $3 SUBSEP $4
        if (!(key in order)) { order[key] = ++nkeys; keys[nkeys] = key }
        v[$1, key, $2] = $5
    }
    END {
        printf "%-15s %-14s %12s %12s %8s %6s %11s %11s\n", "workload", "metric",
            "parent_med", "change_med", "ratio", "won", "parent_iqr", "change_iqr"
        for (k = 1; k <= nkeys; k++) {
            key = keys[k]; split(key, wm, SUBSEP)
            np = nc = won = 0
            for (i = 0; i < pairs; i++) {
                hp = (("parent", key, i) in v); hc = (("change", key, i) in v)
                if (hp) pv[++np] = v["parent", key, i]
                if (hc) cv[++nc] = v["change", key, i]
                if (hp && hc) {
                    a = v["parent", key, i]; b = v["change", key, i]
                    if (wm[2] == "sim_slowdown" && a != b) {
                        print "ab: FAIL: " wm[1] " sim_slowdown differs in pair " i ": " a " vs " b
                        slowdown_moved = 1
                    }
                    if ((better[wm[2]] == "higher" && b > a) || (better[wm[2]] != "higher" && b < a)) won++
                }
            }
            if (np == 0 || nc == 0) continue
            sort(pv, np); sort(cv, nc)
            mp = median(pv, np); mc = median(cv, nc)
            printf "%-15s %-14s %12.5g %12.5g %8.4f %3d/%-2d %10.1f%% %10.1f%%\n", wm[1], wm[2],
                mp, mc, mp ? mc / mp : 0, won, pairs,
                mp ? 100 * (q(pv, np, 0.75) - q(pv, np, 0.25)) / mp : 0,
                mc ? 100 * (q(cv, nc, 0.75) - q(cv, nc, 0.25)) / mc : 0
        }
        exit (failed > 0 || slowdown_moved)
    }
' "$tmp/better.txt" "$tmp/records.txt" && [ ! -e "$tmp/run-failed" ] || {
    echo "ab: FAIL (runs kept in $tmp)" >&2
    exit 1
}
rm -rf "$tmp"
