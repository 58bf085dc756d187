#!/usr/bin/env bash
# The merge gate: every check CI runs, in CI's order and with CI's timeouts.
# `.github/workflows/ci.yml` only sets up the toolchain and calls this
# script, so a local run and a CI run check the same things.
#
# Usage: scripts/gate.sh
#
# Run from anywhere; it works from the root of the checkout. The first
# failing step stops the gate with a nonzero exit. Steps leave these files
# at the root: rt_regression.log, explore-{munin,ivy,tardis}.txt and, when
# a campaign fails, its minimized plan campaign-*minimized.toml (CI uploads
# the last two kinds as artifacts).
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
    echo "=== $1"
}

step "Build (release)"
cargo build --release --all-targets

# This debug run includes the rt suites too, so it gets the same hang
# protection as the release steps below. `--no-fail-fast`: one failing crate
# must not hide the crates after it.
step "Test"
timeout 1800 cargo test -q --no-fail-fast

# The real-time kernel runs genuinely concurrent OS threads, so its matrix
# and stress tests explore a fresh interleaving per run; release mode keeps
# them fast, and the timeout turns any deadlock the stall watchdog somehow
# misses into a fast failure instead of a hung job. The cross-backend matrix
# is driven by `Backend::matrix()`, so it covers every protocol (Munin, Ivy,
# Tardis) on every fabric.
step "Real-time cross-backend matrix (release)"
timeout 600 cargo test --release -q -p xtests --test cross_backend

# The Tardis protocol crate's own suite: timestamp/lease unit tests plus the
# server's sim-level tests.
step "Tardis protocol tests (release)"
timeout 600 cargo test --release -q -p munin-tardis

# The word-at-a-time diff scan (bit tricks on every flush) and the `Diff`
# wire decoder, tested at the optimisation level the benchmark measures:
# this toolchain's LLVM has miscompiled a constant loop nest at -O3 before,
# which a debug-only run would never see.
step "Diff scan and wire codec tests (release)"
timeout 600 cargo test --release -q -p munin-mem -p munin-proto

# The one client path every fabric runs (op window, tokens, write combining,
# the wait table) and Ivy's pending-op engine (page spans, targeted
# rescans) are hot-path code the benchmark measures in release; their
# tests (no clock read, no allocation per absorbed write, spans against
# `pieces`, page-order wakes) run at that optimisation level here.
step "Client, simulator kernel and Ivy engine tests (release)"
timeout 600 cargo test --release -q -p munin-sim -p munin-ivy -p munin-mem

step "Real-time sync-object stress (release)"
timeout 600 cargo test --release -q -p xtests --test rt_stress

step "Real-time batching determinism (release)"
timeout 600 cargo test --release -q -p xtests --test rt_batching

# The stall watchdog both wall-clock fabrics share, driven on rt and on TCP.
# The TCP half skips itself where `munin-node` is missing, so the binary is
# built first and a skip fails the step.
step "Real-time timer/watchdog regressions, rt and TCP (release)"
cargo build --release -q -p munin-api --bin munin-node
timeout 600 cargo test --release -q -p xtests --test rt_regression -- --nocapture 2>&1 | tee rt_regression.log
if grep -q "skipping the tcp half" rt_regression.log; then
    echo "the TCP half of the watchdog regressions was skipped"
    exit 1
fi

# The pipelined-op path (async tokens, write combining, sync-point drains)
# explores real thread interleavings on the rt backends, and on the TCP
# backends guards the deferred flush (a thread's pipelined Op frames leave
# only when it is about to park), so it runs in release with the same hang
# bound as the other rt suites.
step "Async op ordering edges (release)"
timeout 600 cargo test --release -q -p xtests --test async_ops

# The TCP fabric spawns real munin-node processes over loopback; the wire
# proptests, fault-surfacing tests and SIGUSR1 dump test all run here, and
# any lost-teardown regression dies on the timeout instead of wedging the
# job.
step "TCP fabric wire/fault/dump tests (release)"
timeout 600 cargo test --release -q -p munin-tcp

# Telemetry invariants under real concurrency: the zero-allocation recording
# gate and the cross-backend span-coherence tests (which spawn the TCP
# fabric's node processes), plus the <5% ops/s overhead gate for the
# always-on Counters mode.
step "Telemetry alloc + span tests (release)"
timeout 600 cargo test --release -q -p munin-obs -p munin-api

step "Telemetry overhead gate (release)"
timeout 600 cargo bench --bench obs_overhead

step "Distributed 2-process smoke (release)"
timeout 600 cargo run --release -p munin-bench --bin study -- --backend munin-tcp --apps life,matmul --nodes 2

# tsp on Ivy at 64 nodes: ~3.8 M messages, too slow for the debug suite
# (which runs every other app x protocol cell at 64 nodes, qsort on Ivy
# included, `tests/tests/apps_at_scale.rs`). tsp guards the work stack's
# sizing against the worker count on the protocol whose schedule fills it
# most.
step "tsp at 64 nodes on Ivy (release)"
timeout 600 cargo run --release -p munin-bench --bin study -- --backend ivy --apps tsp --nodes 64

# Seeded fault campaigns: a fixed batch on the deterministic simulator (any
# failure auto-shrinks and prints a one-line `munin-campaign --seed N`
# repro), then the process-fault scenario subset against real munin-node
# processes. The minimized plan of a failing batch is written to the root
# so the repro travels with the CI run.
step "Fault campaigns, simulator batch (release)"
timeout 600 cargo run --release -p munin-campaign -- --batch 150 --out campaign-minimized.toml

# A smaller batch with the op mix biased toward pipelined kinds, so faults
# land while tokens are in flight and the async record/patch path in the
# executor sees adversarial schedules every run.
step "Fault campaigns, async-heavy batch (release)"
timeout 600 cargo run --release -p munin-campaign -- --batch 30 --async-heavy --out campaign-async-minimized.toml

# The same generator on the Tardis sim target: timestamp-lease coherence
# under the full fault vocabulary, plus its curated healed-partition
# scenario.
step "Fault campaigns, Tardis simulator batch (release)"
timeout 600 cargo run --release -p munin-campaign -- --batch 30 --backend tardis --out campaign-tardis-minimized.toml
timeout 300 cargo run --release -p munin-campaign -- --scenario tardis-lease-partition

# Coverage-guided exploration: the corpus loop must reach every goal in each
# sim protocol's must-reach transition manifest within a bounded budget — an
# unreached transition (protocol path gone dead, manifest drifted from the
# code) exits nonzero and fails the gate. The per-protocol coverage reports
# are written either way.
step "Coverage-guided exploration, all sim protocols (release)"
timeout 600 cargo run --release -p munin-campaign -- explore --budget 64 --backend munin --out explore-munin.txt
timeout 600 cargo run --release -p munin-campaign -- explore --budget 64 --backend ivy --out explore-ivy.txt
timeout 600 cargo run --release -p munin-campaign -- explore --budget 64 --backend tardis --out explore-tardis.txt

step "Fault campaigns, TCP fabric scenarios (release)"
timeout 300 cargo run --release -p munin-campaign -- --scenario tcp-kill
timeout 300 cargo run --release -p munin-campaign -- --scenario tcp-half-close
timeout 300 cargo run --release -p munin-campaign -- --scenario tcp-kill-pipelined

# The benchmark is a package of its own whose probes link against public
# items of the crates (`frames::read_frame`, `Wire`, ...), and every workload
# checks its results: a signature break or a wrong answer fails here, not at
# the next measured run. `--quick` takes well under a minute; its numbers are
# not compared to anything.
step "Benchmark builds and verifies (quick pass)"
timeout 300 benchmark/run.sh --quick

# The BENCH_*.json records are regenerated on demand with `scripts/bench.sh`,
# not here.
step "Benches compile"
cargo bench --no-run

# Names deleted by earlier simplifications must not come back. (One letter of
# each name is bracketed so this step does not match itself.)
# - the real-time client knobs: spin-wait, op-window, write-combining and
#   batching knobs, the byte-offset `Par` extension, environment overrides;
# - the simulator's thread-to-loop request channel (application threads pass
#   the world state between them as a baton);
# - the per-cell backend variants, the campaign's target enum, the
#   per-protocol name tables, the TCP tuning struct (a backend is
#   `Backend::Dsm { proto, fabric }`);
# - the TCP world builder, the second watchdog, the fire-and-forget dump
#   event, the TCP-side signal module (rt and TCP share one builder, watchdog
#   and dump path);
# - the test-only counting tracer, and the `cond_broadcast` call (the thread
#   surface is `DsmThread`, whose `cond_signal` takes `broadcast`);
# - the two wall-clock kernels, the step's kernel trait and the TCP registry
#   cache (one `WallKernel` over a link, one `Registry` value type);
# - the per-thread resume channels: their two ends and the sender type (a
#   thread waits on a `ResumeSlot`, woken only after its waker lets go);
# - the simulator's and the wall-clock world builders, and any second
#   implementation of the application thread trait (every backend runs one
#   `WorldDesc`, and `Par` is `DsmThread`);
# - a second op window, combining buffer or op gate in the real-time kernel
#   (the one client path and the one gate live in `munin-sim`), checked
#   under `crates/rt/src` below;
# - the simulator's retransmit layer: its reorder buffer, loss model,
#   retransmit timer, transport acks, timeout knob and unacked count (a
#   fault holds a transmission, it never drops one);
# - OS threads in the simulator's world and thread modules (its application
#   threads are fibers on the caller's thread, `crates/sim/src/fiber.rs`);
# - `munin-net`'s message envelope, which nothing used.
step "Deleted names stay deleted"
if git grep -nE 'struct WcBu[f]|struct OpGat[e]|fn wc_absor[b]|MAX_INFLIGH[T]: usize' -- crates/rt/src; then
    echo "the real-time kernel has a client path or op gate of its own again"
    exit 1
fi
if git grep -nE 'RtWorldBuilde[r]|WorldBuilde[r]|impl(<[^>]*>)? Pa[r] for|RtKerne[l]|TcpKerne[l]|NodeKerne[l]|RegCach[e]|SpinWai[t]|unbatched[(]|compute_scal[e]|watchdog_pol[l]|[.]max_infligh[t]|write_combin[e]|batch_ma[x]|ParEx[t]|MUNIN_RT_STALL_M[S]|MUNIN_BENCH_BYTE_PAT[H]|traffic_r[t]|ThreadRe[q]|req_t[x]|req_r[x]|BACKEND_NAME[S]|TcpTunin[g]|MUNIN_TCP_DUMP_AFTER_M[S]|Backend::(Muni[n]|Iv[y]|Tardi[s])|Target::(Muni[n]|Iv[y]|Tardi[s])|TcpWorldBuilde[r]|coordinator_watchdo[g]|DumpStuc[k]|dump_stuc[k]|munin_tcp::si[g]|CountingTrace[r]|cond_broadcas[t][(]|resume_r[x]|resume_t[x]|Sender<OpResul[t]>' -- crates/ tests/ examples/ scripts/ README.md; then
    echo "a deleted name is referenced again"
    exit 1
fi
if git grep -nE 'ReorderBuffe[r]|LossMode[l]|RetxTime[r]|NetAc[k]|retx_timeout_u[s]|total_unacke[d]' -- crates/ tests/ examples/ scripts/ README.md; then
    echo "the simulator's retransmit layer is referenced again: faults hold, never drop"
    exit 1
fi
if git grep -nE 'thread::(spaw[n]|Builde[r])' -- crates/sim/src/world.rs crates/sim/src/thread.rs; then
    echo "the simulator spawns OS threads again: its application threads are fibers"
    exit 1
fi
if git grep -nE 'Envelop[e]' -- crates/ tests/ examples/ scripts/ README.md; then
    echo "munin_net's deleted message envelope is referenced again"
    exit 1
fi
if git grep -nE 'HashMa[p]<' -- crates/core/src crates/tardis/src crates/ivy/src crates/mem/src; then
    echo "a protocol or store table hashes with SipHash again: use munin_types::IdMap"
    exit 1
fi

step "Format"
cargo fmt --check

# Rustdoc over the first-party crates, warnings denied: a broken or private
# intra-doc link fails here. The vendored stubs under `vendor/` are left
# out (they are stand-ins, not this project's documentation).
step "Docs"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --exclude serde \
    --exclude parking_lot --exclude crossbeam-channel --exclude rand --exclude proptest \
    --exclude criterion

step "Clippy"
cargo clippy --all-targets -- -D warnings

echo "=== gate passed"
