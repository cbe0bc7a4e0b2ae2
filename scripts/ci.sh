#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): everything here must pass offline — no
# network, no registry. Zero external dependencies are declared anywhere
# by policy (root Cargo.toml), and the no-env stage holds the repo to it.
#
# There is one build of the workspace (no cargo features) and one CLI
# binary (target/release/vta, which the build stage produces and every
# later stage invokes), so the gate is a list of 9 stages with
# per-stage timing (human summary at the end, machine-readable in
# ci-timings.json):
#
#   fmt
#   no-env: no library crate reads the process environment, and nothing
#     under crates/*/src reads the host clock except the profiler
#     (crates/sim/src/prof.rs) and measure_cell (crates/bench/src/lib.rs);
#     one package tree, all of it built here: no manifest declares cargo
#     features and neither lockfile names a registry source; guest memory
#     (crates/x86/src/mem.rs, under every layer) stays a flat page table,
#     no HashMap on any guest access; the translator says what a
#     translation read (TBlock::footprint), so no RecordingSource / ReadSet
#     under crates/*/src (the fetch-watching model lives in crates/ir/tests/);
#     translation work has one owner: no in-flight map beside the slave
#     pool (crates/dbt/src/codecache.rs) and no per-slave counter
#     (crates/dbt/src/slave.rs) — Stats counts what the slaves did;
#     an L1.5 bank keeps its blocks in retention order, so no whole-bank
#     victim scan (max_by_key) in crates/dbt/src/codecache.rs outside its
#     tests, where that scan is the reference model; the reference
#     interpreter has one loop (Cpu::run_observed), which the Pentium III
#     model observes, so no decode( or .execute( under crates/pentium/src;
#     a chained block runs borrowed from its L1 slot, so no Arc::clone in
#     crates/dbt/src/system.rs outside its tests, and a block exit tests
#     its successors without allocating, so no known_succs under
#     crates/*/src; promoted regions are always built along a recorded
#     path, so no record_paths knob and no RegionShape::Static under
#     crates/*/src; BENCH_dispatch.json is the one golden file, so
#     no BENCH_metrics_vpr.csv at the repo root; and the translator's
#     buffers live in one explicit context (vta_ir::Translator), so no
#     thread_local! under crates/ir/src, no HashMap scan memo in
#     crates/ir/src/opt/flags.rs outside its tests, and no second
#     lowering path that renumbers a region member's temporaries
#     (fn shift_temps / fn append_member); flag liveness has one owner,
#     computed over the decoded region before lowering, so no MIR pass
#     that deletes FlagDefs (eliminate_dead_flags / baseline_only) under
#     crates/ir/src and no second flag table (fn writes_flags /
#     fn reads_flags) under crates/x86/src; a translated block states
#     which guest code it covers once, in TBlock::members, so no
#     member_insns or pub ranges under crates/*/src; a knob only
#     one configuration ever set is a constant, so no max_spec_depth
#     or check_interval under crates/dbt/src; and temporary liveness
#     is one backward walk at codegen entry (codegen::Alloc::plan), so
#     no second MIR liveness walk: no opt/dce.rs and no LiveSet under
#     crates/ir/src; and every table keyed by a guest address or page
#     hashes with the one address hasher (crates/sim/src/addrhash.rs),
#     so no HashMap<u32 / HashSet<u32 / HashMap<(u32 (std's SipHash) in
#     crates/dbt/src/*.rs or crates/ir/src/record.rs outside their tests;
#     and the path-recording protocol is written once (vta_ir::record),
#     so no second recorder (PathRecorder, fn note_exit, fn at_syscall)
#     under crates/ir/src, and the fuzz oracle runs the shapes System
#     runs, so no statically predicted region arm (enum Shapes) there;
#     and guest code is read a page window at a time, so no per-byte
#     fn fetch in crates/x86/src/decode.rs and no second page walk
#     (page_slices) under crates/dbt/src: Footprint::windows is the one
#     walk over a translation's live bytes; and a sweep's fan-out is
#     bounded by the host's cores or the caller's width, never one
#     thread per cell: no sweep_threads(.., usize::MAX) and no
#     bounded_map(usize::MAX, ..) under crates/*/src; and the L1 code
#     cache's index is an AddrMap too, so no second address table
#     (TOMB, fn rehash, fn hash_addr) in crates/dbt/src/codecache.rs
#     outside its tests
#   clippy
#   doc: the public docs build with every rustdoc warning an error, so
#     no public doc links an item that is not public (pub means another
#     crate, an integration test, an example or benchmark/ reads it)
#   build release
#   test (debug-for-tests)
#   determinism: vta check on 1 and on 4 host threads; every row of
#     BENCH_dispatch.json must match what the tree simulates — the
#     paper_default cycles and stats digests, the four figure sweep
#     digests (fig4, fig5, fig8, fig9: 16 configs x 11 guests, morphing
#     and the L1.5 bank poles included), gate_digests.single_block
#     (every guest with superblocks off and at OptLevel::None) and
#     gate_digests.metrics_vpr (vpr's windowed metrics series) — every
#     cell must match the reference interpreter, and the full stdout
#     must be identical at both widths
#   fuzz: differential fuzzing — the committed corpus replays clean and
#     fixed-seed generated batches find no divergence
#   benchmark: the repo benchmark (benchmark/, BENCHMARK.json) still
#     builds against the crates, its own tests pass, and a short run of
#     every workload passes every oracle with zero failed operations.
#     Timing is NOT gated here: the smoke checks the contract, the
#     driver that runs the benchmark on each PR judges the numbers
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
# CLI binary may read the process environment, never a library crate,
# and only the host profiler and measure_cell (whose wall_seconds
# benchmark/ reads) may read the host clock. And every test in the repo
# is one this script builds and runs: no package excluded from the
# workspace for needing a registry, no feature-gated code, no external
# dependency in either lockfile. Guest memory sits under every layer, so
# a guest access stays indexed loads: no hash map in its page table.
# Which guest bytes a translation depended on is the translator's one
# answer, not a CodeSource wrapper's: none comes back under crates/*/src.
# The slave pool is the only record of what is in flight and Stats the
# only count of what was translated: a retiring slave takes neither with it.
# An L1.5 bank is ordered by retention priority, so its victim is the last
# block, never the result of a scan over every resident one (the tests
# keep that scan as the model the bank is held to). A chained block exit
# costs no refcount and no allocation: the run loop borrows the block it
# runs, and the successor test is Term::leads_to, not a Vec. A promoted
# region is built along the path a recording pass logged, never a static
# prediction, and every frozen simulated result is a row of
# BENCH_dispatch.json, so no second golden file comes back. A translation
# works in buffers its caller's Translator owns, never in hidden per-thread
# pools; the flag scan's memo is a short list, not a hash map; and region
# members lower straight into the region's buffer. Which flags a reader
# can see is settled once, before lowering, from one per-Op table: no
# pass deletes the FlagDefs lowering emitted, and the decoder keeps no
# flag table of its own. A translated block lists its members once (no
# parallel lists to zip), and the speculation depth and the morph
# monitor's sampling interval are constants, not config fields. Which
# temporaries are read, and where last, is one backward walk at codegen
# entry that also drops dead pure instructions: no dead-code pass walks
# the MIR a second time. The DBT's address tables (L2, the page registry,
# the region roots, the queues, the sweep memo) are hashed on every
# commit and speculative push; they share one multiply-and-fold address
# hasher, and a std SipHash table keyed by an address does not come back.
# The path-recording protocol that promotes region roots is one type,
# which the DBT and the fuzz oracle both drive: no second copy of it.
# Guest code is read a page window at a time (CodeSource::window), and a
# footprint's live bytes through its one walk: no per-byte fetch, no
# private page iterator beside it. A sweep runs on a bounded number of
# host threads, so its memory follows the cells in flight, not the cells
# in the sweep: no width of usize::MAX. The L1 code cache indexes its
# slots with the same AddrMap: no hand-written open-addressed table
# (tombstones, rehash, a private hash) comes back beside it.
#
# siphash_addr_tables: prints each such table outside the tests of
# crates/dbt/src/*.rs and of crates/ir/src/record.rs, which holds the
# region roots (file by file: sed's `q` ends its whole input); true if
# there is one.
siphash_addr_tables() {
    local f found=1
    for f in crates/dbt/src/*.rs crates/ir/src/record.rs; do
        if sed '/^#\[cfg(test)\]/q' "$f" | grep -n 'HashMap<u32\|HashSet<u32\|HashMap<(u32' |
            sed "s|^|$f:|"; then
            found=0
        fi
    done
    return $found
}
no_env_stage() {
    ! grep -rn 'env::var' crates/*/src --include=*.rs | grep -v '^crates/bench/src/bin/' &&
        ! grep -rn 'Instant::now' crates/*/src --include=*.rs |
        grep -v -e '^crates/sim/src/prof.rs:' -e '^crates/bench/src/lib.rs:' &&
        ! ls -d heavy 2>/dev/null &&
        ! grep -n '^exclude' Cargo.toml &&
        ! grep -n '^\[features\]' Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml &&
        ! grep -n 'source = ' Cargo.lock benchmark/Cargo.lock &&
        ! grep -n 'HashMap' crates/x86/src/mem.rs &&
        ! grep -rn 'RecordingSource\|ReadSet' crates/*/src &&
        ! grep -n 'in_flight' crates/dbt/src/codecache.rs &&
        ! sed '/^#\[cfg(test)\]/q' crates/dbt/src/codecache.rs | grep -n 'max_by_key' &&
        ! grep -rn 'decode(\|\.execute(' crates/pentium/src &&
        ! sed '/^#\[cfg(test)\]/q' crates/dbt/src/system.rs | grep -n 'Arc::clone' &&
        ! grep -rn 'known_succs' crates/*/src &&
        ! grep -rn 'record_paths\|RegionShape::Static' crates/*/src &&
        ! grep -rn 'thread_local!' crates/ir/src &&
        ! sed '/^#\[cfg(test)\]/q' crates/ir/src/opt/flags.rs | grep -n 'HashMap' &&
        ! grep -rn 'fn shift_temps\|fn append_member' crates/ir/src &&
        ! grep -rn 'eliminate_dead_flags\|baseline_only' crates/ir/src &&
        ! grep -rn 'fn writes_flags\|fn reads_flags' crates/x86/src &&
        ! grep -rn 'member_insns\|pub ranges' crates/*/src &&
        ! grep -rn 'max_spec_depth\|check_interval' crates/dbt/src &&
        ! ls BENCH_metrics_vpr.csv 2>/dev/null &&
        ! ls crates/ir/src/opt/dce.rs 2>/dev/null &&
        ! grep -rn 'LiveSet' crates/ir/src &&
        ! siphash_addr_tables &&
        ! grep -rn 'PathRecorder\|fn note_exit\|fn at_syscall\|enum Shapes' crates/ir/src &&
        ! grep -n 'fn fetch' crates/x86/src/decode.rs &&
        ! grep -rn 'page_slices' crates/dbt/src &&
        ! grep -rnE 'sweep_threads\(.*usize::MAX|bounded_map\(usize::MAX' crates/*/src &&
        ! grep -nE '^\s*(pub(\(crate\))? )?(busy_cycles|completed):' crates/dbt/src/slave.rs &&
        ! sed '/^#\[cfg(test)\]/q' crates/dbt/src/codecache.rs | grep -n 'TOMB\|fn rehash\|fn hash_addr'
}
run_stage "no-env, no-clock (library crates)" \
    no_env_stage

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
# cycles and stats digests, the figure sweep digests (fig4/5/8/9) and the
# gate digests (single_block, metrics_vpr) — must match bit-for-bit, and
# the check output itself must not depend on how many host threads the
# sweeps fan out over.
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
            echo "ci: FAIL: a row of BENCH_dispatch.json (paper_default cycles/stats_fp," >&2
            echo "ci:       figure_sweep_digests fig4/5/8/9, gate_digests single_block/metrics_vpr)" >&2
            echo "ci:       drifted, is missing or is extra at --threads $t (vta check names it" >&2
            echo "ci:       on stderr); stdout kept in $out_dir" >&2
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
