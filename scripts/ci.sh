#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): everything here must pass offline — no
# network, no registry. The default workspace has zero external
# dependencies by policy (root Cargo.toml); the excluded `heavy/`
# package holds the proptest/criterion suites and is built on request
# only.
#
# The gate is a staged matrix with per-stage timing (human summary at
# the end, machine-readable in ci-timings.json):
#
#   fmt
#   no-env: no library crate reads the process environment
#   clippy   × {default, --no-default-features}
#   build    × {default, --no-default-features}   (release)
#   test     × {default, --no-default-features}   (debug-for-tests)
#   determinism: perf --check with the fig5 sweep on 1 and on 4 host
#     threads; every fingerprint, the sweep digest AND the full --check
#     stdout must be identical at both widths
#   metrics: perf --metrics --check — the windowed series for the vpr
#     benchmark must match the committed BENCH_metrics_vpr.csv golden
#     byte-for-byte (regenerate with --metrics --bless when a simulated
#     behavior change is intentional)
#   superblock: perf --superblock --check — guest instruction
#     retirement must be identical across off/static/recorded region
#     modes for every benchmark × opt cell
#   profile: the host wall-time profiler must be invisible to the
#     simulation — perf --profile --check stdout must be byte-identical
#     to plain --check, in the default build and in the
#     no-default-features build (where the profiler compiles out), and
#     the profiler's own wall cost on the fingerprint benches must stay
#     under 5% (perf --profile --overhead, min-of-N)
#   fuzz: differential fuzzing under the feature combinations that
#     exist in the field (default = trace+metrics+prof, none of them,
#     trace-without-metrics, and prof-alone — the profiler hooks must
#     not perturb the oracle)
#   scaling gate: on multi-core hosts, the fig5 sweep fanned out over
#     min(4, nproc) threads must actually beat 1 thread (skipped on
#     single-core hosts, where no wall-clock speedup is physically
#     possible)
#
# Every stage that skips itself says so inline AND in the end-of-run
# summary — a skip is a host limitation, never a silent pass.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

STAGE_NAMES=()
STAGE_SECS=()
STAGE_STATUS=()
# Stage functions set this non-empty (with a reason) to report
# themselves skipped; run_stage resets it before each stage.
STAGE_SKIPPED=""

# run_stage <name> <cmd...>: time one stage, fail loudly, remember it.
run_stage() {
    local name="$1"
    shift
    local t0=$SECONDS
    STAGE_SKIPPED=""
    echo "ci: ── stage: $name"
    "$@"
    local dt=$((SECONDS - t0))
    local status=ok
    if [ -n "$STAGE_SKIPPED" ]; then
        status="skipped: $STAGE_SKIPPED"
    fi
    STAGE_NAMES+=("$name")
    STAGE_SECS+=("$dt")
    STAGE_STATUS+=("$status")
    echo "ci: ── stage: $name $status (${dt}s)"
}

run_stage "fmt" \
    cargo fmt --all --check

# A simulated machine is a pure function of (image, config): only the
# CLI binaries may read the process environment, never a library crate.
no_env_stage() {
    ! grep -rn 'env::var' crates/*/src --include=*.rs | grep -v '^crates/bench/src/bin/'
}
run_stage "no-env (library crates)" \
    no_env_stage

run_stage "clippy (default)" \
    cargo clippy --workspace --all-targets -- -D warnings
run_stage "clippy (no-default-features)" \
    cargo clippy --workspace --all-targets --no-default-features -- -D warnings

run_stage "build release (default)" \
    cargo build --release --workspace
run_stage "build release (no-default-features)" \
    cargo build --release --workspace --no-default-features

run_stage "test (default)" \
    cargo test -q --workspace
# The trace feature must compile out completely (the Tracer becomes a
# zero-sized no-op) — and the no-trace configuration must PASS ITS
# TESTS, not merely type-check.
run_stage "test (no-default-features)" \
    cargo test -q --workspace --no-default-features

# Determinism stage: simulated cycles and stats must match the frozen
# fingerprints in BENCH_dispatch.json bit-for-bit, and the --check
# output itself — which digests every cell of the fig5 sweep — must not
# depend on how many host threads the sweep fans out over.
determinism_stage() {
    # No `trap ... RETURN` here: a RETURN trap set inside a function
    # stays installed for every later function return in the script
    # (where the local it references no longer exists — an unbound
    # variable under `set -u`). Clean up explicitly instead; on
    # failure the tempdir is left behind for inspection.
    local out_dir t
    out_dir="$(mktemp -d)"
    for t in 1 4; do
        echo "ci:    perf --check --threads $t"
        cargo run --release -q -p vta-bench --bin perf -- --check --threads "$t" \
            > "$out_dir/check-$t.txt"
    done
    if ! diff "$out_dir/check-1.txt" "$out_dir/check-4.txt" >&2; then
        echo "ci: FAIL: perf --check output differs between --threads 1 and 4" >&2
        echo "ci:       outputs kept in $out_dir" >&2
        return 1
    fi
    echo "ci:    fingerprints, sweep digest and full stdout identical at threads {1,4}"
    rm -rf "$out_dir"
}
run_stage "determinism (sweep threads 1 vs 4)" \
    determinism_stage

# Metrics stage: the windowed time series is a pure function of
# (image, config, interval) — diff it against the committed golden.
run_stage "metrics (perf --metrics --check)" \
    cargo run --release -q -p vta-bench --bin perf -- --metrics --check

# Superblock stage: region formation (static or recorded) must never
# change WHAT executes, only how it is grouped — guest instruction
# retirement must be identical across off/static/recorded for every
# benchmark × opt-level cell at Scale::Test.
run_stage "superblock retirement (perf --superblock --check)" \
    cargo run --release -q -p vta-bench --bin perf -- --superblock --check

# Profile stage: host wall-clock profiling is the second clock domain
# and must never leak into the first — enabling it inside every
# fingerprinted System must leave the --check stdout (cycles AND full
# stats digests) byte-identical, in the default build and in the
# no-default-features build where the profiler compiles down to
# no-ops. The profiler's own cost is gated too: min-of-N interleaved
# wall on the fingerprint benches must stay within 5% (one retry — the
# assertion measures the instrumentation, not a noisy neighbor).
profile_stage() {
    local out_dir
    out_dir="$(mktemp -d)"
    # on_off_pair [cargo feature flags...]: --check with and without
    # --profile under those flags must print the same bytes.
    on_off_pair() {
        echo "ci:    perf --check vs --profile --check ${*:-(default features)}"
        cargo run --release -q -p vta-bench "$@" --bin perf -- --check \
            > "$out_dir/plain.txt"
        cargo run --release -q -p vta-bench "$@" --bin perf -- --profile --check \
            > "$out_dir/prof.txt"
        if ! diff "$out_dir/plain.txt" "$out_dir/prof.txt" >&2; then
            echo "ci: FAIL: --profile --check stdout differs from --check $*" >&2
            echo "ci:       (outputs kept in $out_dir)" >&2
            return 1
        fi
    }
    on_off_pair
    on_off_pair --no-default-features
    echo "ci:    profiling on/off stdout identical with the feature on and off"
    if ! cargo run --release -q -p vta-bench --bin perf -- --profile --overhead \
        | sed 's/^/ci:    /'; then
        echo "ci:    overhead gate failed once; retrying (guards against a noisy host)"
        cargo run --release -q -p vta-bench --bin perf -- --profile --overhead \
            | sed 's/^/ci:    /'
    fi
    rm -rf "$out_dir"
}
run_stage "profile (on/off invariance + overhead)" \
    profile_stage

# Fuzz stage: differential fuzzing of the x86 front end. Two parts,
# both deterministic and offline: (1) every committed minimized
# reproducer in the regression corpus must replay clean through the
# oracle (reference vs None vs Full vs recorded-path), and (2) a
# fixed-seed generated batch must complete with zero divergences.
# Fixed seeds mean the same case stream and the same verdicts on every
# host; the binary exits nonzero (printing a ready-to-commit corpus
# file) on any divergence.
#
# The corpus also replays under trace-without-metrics — before this
# combination was added, the fuzz stage only ever ran with metrics and
# trace toggled together (default = both on, --no-default-features =
# both off), so the trace-enabled/metrics-disabled build was never
# exercised at all.
fuzz_stage() {
    cargo run --release -q -p vta-bench --bin fuzz -- \
        --corpus crates/ir/tests/corpus
    echo "ci:    corpus replay, --no-default-features --features trace"
    cargo run --release -q -p vta-bench --no-default-features --features trace \
        --bin fuzz -- --corpus crates/ir/tests/corpus
    # Prof-alone: the profiler's hooks (host clock reads on translation
    # slow paths) must not perturb the differential oracle either.
    echo "ci:    corpus replay, --no-default-features --features prof"
    cargo run --release -q -p vta-bench --no-default-features --features prof \
        --bin fuzz -- --corpus crates/ir/tests/corpus
    cargo run --release -q -p vta-bench --bin fuzz -- \
        --cases 4000 --seed 0x5EED
    cargo run --release -q -p vta-bench --bin fuzz -- \
        --cases 3000 --seed 0xB10C
    cargo run --release -q -p vta-bench --bin fuzz -- \
        --cases 3000 --seed 3
}
run_stage "fuzz (fixed-seed smoke)" \
    fuzz_stage

# Scaling gate: the sweep fan-out — the one host-parallel path — must
# actually pay off where it can. A single-core host cannot speed
# anything up with threads (only measure scheduler overhead), so the
# assertion is gated on available cores; BENCH_parallel.json's internal
# consistency is checked either way (in the determinism stage via
# --check).
scaling_stage() {
    local cores threads need
    cores="$(nproc)"
    if [ "$cores" -lt 2 ]; then
        echo "ci:    skipped: single-core host: wall-clock speedup is physically impossible;"
        echo "ci:    skipping the speedup assertion (artifact still validated by --check)"
        STAGE_SKIPPED="single-core host"
        return 0
    fi
    # Required ratio in tenths: 1.8x with four cores to spread over,
    # 1.4x with two or three (measured 1.6-1.7x on two).
    if [ "$cores" -ge 4 ]; then
        threads=4 need=18
    else
        threads="$cores" need=14
    fi
    # wall_of <threads>: the probe's sweep wall seconds — its first
    # stdout line, taken in the shell (`perf | head -1` would close the
    # pipe under the still-running probe).
    wall_of() {
        local out
        out="$(cargo run --release -q -p vta-bench --bin perf -- --threads "$1")"
        out="${out%%$'\n'*}"
        echo "ci:    $out" >&2
        echo "$out" | sed -n 's/.*wall \([0-9.]*\)s.*/\1/p'
    }
    local wall_n wall_1
    wall_n="$(wall_of "$threads")"
    wall_1="$(wall_of 1)"
    if ! awk "BEGIN { exit !(10 * $wall_1 >= $need * $wall_n) }"; then
        echo "ci: FAIL: fig5 sweep at $threads threads is not >= $((need / 10)).$((need % 10))x over 1 thread" >&2
        echo "ci:       wall_1=${wall_1}s wall_${threads}=${wall_n}s" >&2
        return 1
    fi
    echo "ci:    speedup ok (wall_1=${wall_1}s, wall_${threads}=${wall_n}s)"
}
run_stage "scaling ($(nproc) cores)" \
    scaling_stage

echo "ci: stage timings:"
for i in "${!STAGE_NAMES[@]}"; do
    printf 'ci:   %-38s %4ds %s\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}" "${STAGE_STATUS[$i]}"
done
SKIPPED_ANY=0
for i in "${!STAGE_NAMES[@]}"; do
    case "${STAGE_STATUS[$i]}" in
        skipped:*)
            if [ "$SKIPPED_ANY" -eq 0 ]; then
                echo "ci: skipped stages (host limitations, not passes):"
                SKIPPED_ANY=1
            fi
            echo "ci:   ${STAGE_NAMES[$i]} — ${STAGE_STATUS[$i]#skipped: }"
            ;;
    esac
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
        status="${STAGE_STATUS[$i]}"
        printf '    { "name": "%s", "seconds": %d, "status": "%s" }%s\n' \
            "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}" "$status" "$comma"
    done
    echo '  ],'
    printf '  "total_seconds": %d\n' "$total"
    echo '}'
} > ci-timings.json
echo "ci: wrote ci-timings.json"
echo "ci: all tier-1 checks passed"
