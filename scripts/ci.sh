#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): everything here must pass offline — no
# network, no registry. Zero external dependencies are declared anywhere
# by policy (root Cargo.toml), and a rule of scripts/rules.txt holds the
# repo to it.
#
# There is one build of the workspace (no cargo features) and one CLI
# binary (target/release/vta, which the build stage produces and every
# later stage invokes), so the gate is a list of 9 stages with
# per-stage timing (human summary at the end, machine-readable in
# ci-timings.json):
#
#   fmt
#   rules: every architecture rule of scripts/rules.txt (one line each:
#     paths, scope, pattern, a sample it must fire on, its reason and
#     the commit that made it) holds on the tree, and each one fires
#     on its own sample in a scratch copy of its paths
#   clippy
#   doc: the public docs build with every rustdoc warning an error, so
#     no public doc links an item that is not public (pub means another
#     crate, an integration test, an example or benchmark/ reads it)
#   build release
#   test (debug-for-tests)
#   determinism: vta check on 1 and on 4 host threads; every row of
#     BENCH_dispatch.json's five sections (37 rows) must match what the
#     tree simulates — paper_default_cycles and paper_default_stats_fp,
#     figure_sweep_digests (fig4/5/8/9: 16 configs x 11 guests, morphing
#     and the L1.5 bank poles included), gate_digests (single_block,
#     metrics_vpr, decode_digest) and translation_digests (22 rows: every
#     block each guest reaches, translated at Full and at None) — every
#     cell must match the reference interpreter, and the full stdout
#     must be identical at both widths
#   fuzz: differential fuzzing — the committed corpus replays clean and
#     fixed-seed generated batches find no divergence
#   benchmark: the repo benchmark (benchmark/, BENCHMARK.json) still
#     builds against the crates, its own tests pass, and a short run of
#     every workload passes every oracle with zero failed operations.
#     Timing is NOT gated here: the smoke checks the contract, the
#     driver that runs the benchmark on each PR judges the numbers
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

STAGE_NAMES=()
STAGE_SECS=()

# run_stage <name> <cmd...>: time one stage, fail loudly, remember it.
run_stage() {
    local name="$1"
    shift
    local t0=$SECONDS
    echo "ci: ── stage: $name"
    "$@"
    local dt=$((SECONDS - t0))
    STAGE_NAMES+=("$name")
    STAGE_SECS+=("$dt")
    echo "ci: ── stage: $name ok (${dt}s)"
}

run_stage "fmt" \
    cargo fmt --all --check

# Rules stage: scripts/rules.txt's header says what its fields mean.
RULES=scripts/rules.txt

# load_rules: reads $RULES into the parallel arrays RULE_*, skipping
# comment and blank lines; fails on a line that is not six " | "-separated
# fields with a known scope.
load_rules() {
    local n=0 line
    local -a f
    RULE_AT=() RULE_PATHS=() RULE_SCOPE=() RULE_RE=() RULE_SAMPLE=() RULE_WHY=() RULE_COMMIT=()
    while IFS= read -r line; do
        n=$((n + 1))
        [[ $line == '#'* || -z $line ]] && continue
        IFS=$'\t' read -r -a f <<< "${line// | /$'\t'}"
        if [ "${#f[@]}" -ne 6 ] || ! [[ ${f[1]} =~ ^(anywhere|above-tests|at-most-[0-9]+|absent)$ ]]; then
            echo "ci: FAIL: $RULES:$n: want six ' | '-separated fields and a known scope" >&2
            return 1
        fi
        RULE_AT+=("$n") RULE_PATHS+=("${f[0]}") RULE_SCOPE+=("${f[1]}") RULE_RE+=("${f[2]}")
        RULE_SAMPLE+=("${f[3]}") RULE_WHY+=("${f[4]}") RULE_COMMIT+=("${f[5]}")
    done < "$RULES"
}

# rule_files <paths>: the files, relative to the working directory, that
# a rule's globs name (a directory stands for every file under it),
# sorted, minus those under a !prefix; fails on a glob matching nothing.
rule_files() (
    local g f
    local -a words m found=() skip=()
    read -r -a words <<< "$1"
    shopt -s globstar nullglob
    for g in "${words[@]}"; do
        if [[ $g == '!'* ]]; then
            skip+=("${g#!}")
            continue
        fi
        m=($g)
        if [ "${#m[@]}" -eq 0 ] || ! [ -e "${m[0]}" ]; then
            echo "ci: FAIL: $RULES: no file matches $g" >&2
            exit 1
        fi
        found+=("${m[@]}")
    done
    find "${found[@]}" -type f | LC_ALL=C sort -u | while IFS= read -r f; do
        for g in "${skip[@]}"; do [[ $f == "$g"* ]] && continue 2; done
        echo "$f"
    done
)

# rule_hits <root> <i>: prints what rule i finds in the tree at <root>,
# one "path:line:text" a hit ("path: exists" for an absent rule).
rule_hits() (
    cd "$1"
    local scope="${RULE_SCOPE[$2]}" re="${RULE_RE[$2]}" list f hits limit=0
    local -a files
    if [ "$scope" = absent ]; then
        for f in ${RULE_PATHS[$2]}; do
            if [ -e "$f" ] || [ -L "$f" ]; then echo "$f: exists"; fi
        done
        exit 0
    fi
    list="$(rule_files "${RULE_PATHS[$2]}")" || exit 1
    [ -n "$list" ] || exit 0
    mapfile -t files <<< "$list"
    if [ "$scope" = anywhere ]; then
        grep -HnE -- "$re" "${files[@]}" || true
        exit 0
    fi
    [[ $scope == at-most-* ]] && limit="${scope#at-most-}"
    for f in "${files[@]}"; do
        hits="$(sed '/^#\[cfg(test)\]/q' "$f" | grep -nE -- "$re" | sed "s|^|$f:|" || true)"
        if [ -n "$hits" ] && [ "$(wc -l <<< "$hits")" -gt "$limit" ]; then echo "$hits"; fi
    done
)

# check_rules <root>: runs every rule on the tree at <root>, printing
# each hit under its rule's line, commit and reason; fails on any hit.
check_rules() {
    local i out status=0
    for i in "${!RULE_AT[@]}"; do
        out="$(rule_hits "$1" "$i")" || return 1
        [ -n "$out" ] || continue
        echo "ci: FAIL: $RULES:${RULE_AT[$i]} (${RULE_COMMIT[$i]}): ${RULE_WHY[$i]}"
        sed 's/^/ci:     /' <<< "$out"
        status=1
    done
    return $status
}

# rules_self_test: copies every rule's paths into a scratch tree, which
# must pass, then writes each rule's sample into it in turn (as line 1
# of the rule's first file, above any tests; for an absent rule, as the
# path itself) and requires that rule, and only it, to fire.
rules_self_test() {
    local t i g at target fired
    t="$(mktemp -d)"
    (
        shopt -s globstar nullglob
        for i in "${!RULE_AT[@]}"; do
            [ "${RULE_SCOPE[$i]}" = absent ] && continue
            for g in ${RULE_PATHS[$i]}; do
                [[ $g == '!'* ]] || cp -r --parents "$g" "$t"/
            done
        done
    )
    if ! check_rules "$t" >&2; then
        echo "ci: FAIL: the scratch copy $t of the rules' paths does not pass" >&2
        return 1
    fi
    for i in "${!RULE_AT[@]}"; do
        at="$RULES:${RULE_AT[$i]}"
        if [ "${RULE_SCOPE[$i]}" = absent ]; then
            target="${RULE_PATHS[$i]%% *}"
            mkdir -p "$(dirname "$t/$target")"
            touch "$t/$target"
        else
            target="$(rule_files "${RULE_PATHS[$i]}" | sed -n 1p)"
            { printf '%s\n' "${RULE_SAMPLE[$i]}"; cat "$target"; } > "$t/$target"
        fi
        fired="$(check_rules "$t" | sed -n "s|^ci: FAIL: $RULES:\([0-9]*\) .*|\1|p" | xargs)" || true
        if [ "$fired" != "${RULE_AT[$i]}" ]; then
            echo "ci: FAIL: $at: its sample in $target fired rule lines [${fired}], want [${RULE_AT[$i]}]" >&2
            echo "ci:       scratch tree kept in $t" >&2
            return 1
        fi
        echo "ci:    $at fires on its sample in $target"
        rm -rf "${t:?}/$target"
        [ "${RULE_SCOPE[$i]}" = absent ] || cp "$target" "$t/$target"
    done
    rm -rf "$t"
}
rules_stage() {
    load_rules
    check_rules .
    rules_self_test
}
run_stage "rules (scripts/rules.txt, self-tested)" \
    rules_stage

run_stage "clippy" \
    cargo clippy --workspace --all-targets -- -D warnings

run_stage "doc" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

run_stage "build release" \
    cargo build --release --workspace
VTA=target/release/vta

run_stage "test" \
    cargo test -q --workspace

# Determinism stage: every frozen row of BENCH_dispatch.json — simulated
# cycles and stats digests, the figure sweep digests (fig4/5/8/9), the
# gate digests (single_block, metrics_vpr, decode_digest) and the
# translation digests — must match bit-for-bit, and
# the check output itself must not depend on how many host threads the
# sweep fans out over. Each vta check makes one sweep: every distinct
# configuration runs once per guest, and every row reads its cells.
determinism_stage() {
    # No `trap ... RETURN` here: a RETURN trap set inside a function
    # stays installed for every later function return in the script
    # (where the local it references no longer exists — an unbound
    # variable under `set -u`). Clean up explicitly instead; on
    # failure the tempdir is left behind for inspection.
    local out_dir t
    out_dir="$(mktemp -d)"
    for t in 1 4; do
        echo "ci:    vta check --threads $t"
        if ! "$VTA" check --threads "$t" > "$out_dir/check-$t.txt"; then
            echo "ci: FAIL: a row of BENCH_dispatch.json (paper_default_cycles," >&2
            echo "ci:       paper_default_stats_fp, figure_sweep_digests fig4/5/8/9," >&2
            echo "ci:       gate_digests single_block/metrics_vpr/decode_digest or one of the" >&2
            echo "ci:       22 translation_digests) drifted, is missing or is extra at" >&2
            echo "ci:       --threads $t (vta check names it on stderr); stdout kept in $out_dir" >&2
            return 1
        fi
    done
    if ! diff "$out_dir/check-1.txt" "$out_dir/check-4.txt" >&2; then
        echo "ci: FAIL: vta check output differs between --threads 1 and 4" >&2
        echo "ci:       outputs kept in $out_dir" >&2
        return 1
    fi
    echo "ci:    every BENCH_dispatch.json row matches; stdout identical at threads {1,4}"
    rm -rf "$out_dir"
}
run_stage "determinism (sweep threads 1 vs 4)" \
    determinism_stage

# Fuzz stage: differential fuzzing of the x86 front end. Two parts,
# both deterministic and offline: (1) every committed minimized
# reproducer in the regression corpus must replay clean through the
# oracle (reference vs None vs Full, each run the way System runs it:
# single blocks, and at Full the regions the DBT's path-recording
# protocol forms), and (2) a
# fixed-seed generated batch must complete with zero divergences.
# Fixed seeds mean the same case stream and the same verdicts on every
# host; the binary exits nonzero (printing a ready-to-commit corpus
# file) on any divergence.
fuzz_stage() {
    "$VTA" fuzz --corpus crates/ir/tests/corpus
    "$VTA" fuzz --cases 4000 --seed 0x5EED
    "$VTA" fuzz --cases 3000 --seed 0xB10C
    "$VTA" fuzz --cases 3000 --seed 3
}
run_stage "fuzz (fixed-seed smoke)" \
    fuzz_stage

# Benchmark stage: run the contract. benchmark/ is its own package
# (own workspace root, own target directory) that links the crates'
# observer and harness APIs, so this is where a change that breaks what
# the benchmark uses of the program shows up before the driver sees it.
# The profiler's own cost is the ledger's sim.prof_on_ratio (run.sh
# --traced); that no observer moves a simulated number is a unit test
# (crates/bench/tests/determinism.rs).
# Each workload prints one JSON result line; every one must say its
# outputs were correct and no operation failed.
benchmark_stage() {
    cargo test --offline -q --manifest-path benchmark/Cargo.toml
    local out
    out="$(bash benchmark/run.sh --seconds 5)"
    echo "$out" | sed 's/^/ci:    /'
    local results ok
    results="$(echo "$out" | grep -c '^{"correct": ' || true)"
    ok="$(echo "$out" | grep '^{"correct": true' | grep -c '"failed": 0,' || true)"
    if [ "$results" -ne 4 ] || [ "$ok" -ne 4 ]; then
        echo "ci: FAIL: benchmark smoke: $ok of $results result lines are correct with 0 failed (want 4 of 4)" >&2
        return 1
    fi
}
run_stage "benchmark (tests + 5 s smoke)" \
    benchmark_stage

echo "ci: stage timings:"
for i in "${!STAGE_NAMES[@]}"; do
    printf 'ci:   %-38s %4ds ok\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
done

# Machine-readable per-stage timings (uploaded as a CI artifact).
{
    echo '{'
    echo '  "stages": ['
    total=0
    for i in "${!STAGE_NAMES[@]}"; do
        total=$((total + STAGE_SECS[i]))
        comma=','
        [ "$((i + 1))" -eq "${#STAGE_NAMES[@]}" ] && comma=''
        printf '    { "name": "%s", "seconds": %d, "status": "ok" }%s\n' \
            "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}" "$comma"
    done
    echo '  ],'
    printf '  "total_seconds": %d\n' "$total"
    echo '}'
} > ci-timings.json
echo "ci: wrote ci-timings.json"
echo "ci: all tier-1 checks passed"
