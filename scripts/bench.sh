#!/usr/bin/env bash
# Regenerate the perf-trajectory records at the workspace root:
#   BENCH_flush.json — flush-pipeline diff throughput (virtual-time kernel)
#   BENCH_rt.json    — wall-clock speedup vs worker count (real-time kernel)
#   BENCH_tcp.json   — multi-process TCP fabric vs in-process rt kernel
#                      (throughput plus per-op p50/p90/p99 latency rows)
#   metrics.json     — full telemetry snapshot (histograms, per-object
#                      counters, span tail) from the tcp latency pass
# Usage:
#   scripts/bench.sh [flush|rt|tcp|all] [extra cargo-bench args...]
# A first argument that is not a selector is treated as a cargo-bench arg
# and every bench runs (so `scripts/bench.sh --quiet` still works).
set -euo pipefail
cd "$(dirname "$0")/.."

which="all"
case "${1:-}" in
    flush | rt | tcp | all)
        which="$1"
        shift
        ;;
esac

if [ "$which" = "flush" ] || [ "$which" = "all" ]; then
    cargo bench --bench flush "$@"
    echo "--- BENCH_flush.json ---"
    cat BENCH_flush.json
fi

if [ "$which" = "rt" ] || [ "$which" = "all" ]; then
    cargo bench --bench runtime_rt "$@"
    echo "--- BENCH_rt.json ---"
    cat BENCH_rt.json
fi

if [ "$which" = "tcp" ] || [ "$which" = "all" ]; then
    # The bench spawns munin-node children; build them in the same
    # (release) profile the bench binaries run in.
    cargo build --release -p munin-api
    cargo bench --bench tcp_fabric "$@"
    echo "--- BENCH_tcp.json ---"
    cat BENCH_tcp.json
    echo "--- metrics.json (full-telemetry pass) ---"
    cat metrics.json
fi
