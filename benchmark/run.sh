#!/usr/bin/env bash
# The DSM benchmark: build the program and the benchmark from source, then
# measure. Run from anywhere; it works from the root of the checkout.
#
#   benchmark/run.sh [--seed N] [--quick]            every workload, both passes,
#                                                    writes benchmark/out/result.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                    one run; the last line of
#                                                    stdout is the result object
#   benchmark/run.sh compare A.json B.json           two result files against the bounds
#   benchmark/run.sh spread [--runs N] [--workload W]   run-to-run spread over N seeds
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
case "$CARGO_TARGET_DIR" in
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$PWD/$CARGO_TARGET_DIR" ;;
esac

# The program under test: the node binary every TCP world spawns, built the
# way users build it. Then the benchmark itself, a package of its own.
# Build chatter goes to stderr; stdout belongs to the results.
cargo build --release --offline -p munin-api --bin munin-node >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
export MUNIN_NODE_BIN="$target/release/munin-node"

case "${1:-}" in
    run | all | compare | spread)
        command="$1"
        shift
        ;;
    *)
        command=all
        for arg in "$@"; do
            [ "$arg" = "--workload" ] && command=run
        done
        ;;
esac
exec "$target/release/benchmark" "$command" "$@"
