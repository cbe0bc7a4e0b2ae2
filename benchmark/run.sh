#!/usr/bin/env bash
# The repo benchmark. Builds the stand-alone package in this directory
# once, then hands every argument to it:
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--traced] [--aa [N]]
#
# Without --workload, every workload runs in its own process. The last
# line a single-workload run prints is its result as one JSON object.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The simulator reads VTA_* variables (host threads, fabric workers,
# manager shards); the benchmark measures it with none of them set.
for v in $(compgen -e | grep '^VTA_' || true); do unset "$v"; done

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/vta-benchmark"

cpu="$(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | xargs || true)"
echo "host: nproc=$(nproc) cpu=\"${cpu:-unknown}\" $(rustc --version) $(uname -sr)"
exec "$bin" "$@"
