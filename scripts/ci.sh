#!/usr/bin/env bash
# Tier-1 gate for the Duplo workspace. Fully hermetic: the workspace has no
# external dependencies, so everything runs with --offline and no registry
# or network access is ever needed.
#
# Usage: scripts/ci.sh
#
# Env knobs (see README "Building & testing"). The DUPLO_THREADS,
# DUPLO_CACHE_DIR, DUPLO_TICK_REFERENCE and DUPLO_L2_* knobs are read by
# the CLI and the test binaries only (RunOptions::from_env), never inside
# the simulator:
#   DUPLO_TEST_SEED=<u64>   master seed for the property-test runner
#   DUPLO_TEST_CASES=<u32>  override per-property case counts
#   DUPLO_THREADS=<usize>   worker threads for the parallel runner
#                           (the determinism gate below pins 1 and 4)
#   DUPLO_LOG=<level>       stderr verbosity: off|info|debug|trace
#   DUPLO_TRACE=<path>      Chrome trace-event export (the trace gate
#                           below exercises the --trace flag directly)
#   DUPLO_L2_SLICES=<n>     sliced-L2 memory side (the sliced gates below
#                           pin slices=1 flat identity and n=4 behavior)
#   DUPLO_L2_HASH=mod|xor   L2 slice partition hash
#   DUPLO_METRICS=off       freeze the telemetry registry (the telemetry
#                           gate below proves on/off byte identity)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check ==" >&2
cargo fmt --check

echo "== cargo build --release --offline ==" >&2
cargo build --release --offline

echo "== cargo test -q --offline ==" >&2
cargo test -q --offline

# Benchmark build gate: `benchmark/` is a separate package that builds
# against the crates' public API, so compile and unit-test it here rather
# than finding a break only when the benchmark next runs.
echo "== benchmark: cargo test --manifest-path benchmark/Cargo.toml ==" >&2
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Digest gate: the benchmark's grids must still simulate to the committed
# digest tables, so a change to the simulator's results fails here rather
# than only when the benchmark next runs.
echo "== benchmark: digests match benchmark/expected ==" >&2
for grid in layer_sweep stream_sliced; do
    cmp <(cargo run -q --release --offline --manifest-path benchmark/Cargo.toml \
        --bin duplo-benchmark -- digests "$grid") "benchmark/expected/$grid.json" || {
        echo "duplo-benchmark digests $grid differs from benchmark/expected/$grid.json" >&2
        exit 1
    }
done

# Archive gate: the full-share registry run must print the published
# archive byte for byte. The event-vs-reference suites below cannot catch a
# change to issue order, because both loops share the schedulers; this
# gate does. The memory-side and loop knobs are unset so the run is the
# archive's configuration whatever the caller exported.
echo "== archive: full-share duplo run all matches experiments_full.txt ==" >&2
cmp <(env -u DUPLO_L2_SLICES -u DUPLO_L2_HASH -u DUPLO_TICK_REFERENCE \
    target/release/duplo run all --no-cache 2> /dev/null) experiments_full.txt || {
    echo "duplo run all --no-cache differs from experiments_full.txt" >&2
    exit 1
}

# Determinism gate: the parallel experiment engine must render
# byte-identical tables at any thread count. Run the dedicated suite once
# with the serial fallback and once with a 4-worker pool.
echo "== determinism: DUPLO_THREADS=1 ==" >&2
DUPLO_THREADS=1 cargo test -q --offline -p duplo-sim --test determinism

echo "== determinism: DUPLO_THREADS=4 ==" >&2
DUPLO_THREADS=4 cargo test -q --offline -p duplo-sim --test determinism

# JSON gate: a fast experiment binary must emit structured results that
# (a) the in-tree parser accepts and (b) are byte-identical across thread
# counts when the volatile host block is suppressed (DUPLO_JSON_STABLE).
echo "== json: emit + validate + thread-count diff ==" >&2
JSON_DIR=$(mktemp -d)
trap 'rm -rf "$JSON_DIR"' EXIT
DUPLO_JSON_STABLE=1 DUPLO_THREADS=1 \
    cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    run smem_policy --sample 2 --json "$JSON_DIR/smem_t1.json" > "$JSON_DIR/stdout_flat.txt"
DUPLO_JSON_STABLE=1 DUPLO_THREADS=4 \
    cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    run smem_policy --sample 2 --json "$JSON_DIR/smem_t4.json" > /dev/null
cargo run -q --release --offline -p duplo-bench --bin json_check -- \
    "$JSON_DIR/smem_t1.json" "$JSON_DIR/smem_t4.json"
cmp "$JSON_DIR/smem_t1.json" "$JSON_DIR/smem_t4.json" || {
    echo "JSON output differs between DUPLO_THREADS=1 and 4" >&2
    exit 1
}

# Registry gate: the unified CLI must list experiments and resolve them.
echo "== duplo list smoke ==" >&2
LISTED=$(cargo run -q --release --offline -p duplo-bench --bin duplo -- list | wc -l)
if [ "$LISTED" -lt 15 ]; then
    echo "duplo list reported only $LISTED experiments" >&2
    exit 1
fi

# Cache gate: the same sweep run twice into one DUPLO_CACHE_DIR must (a)
# serve the second pass from cache (hits>0, misses=0 on its stderr counter
# line) and (b) produce byte-identical stdout and stable JSON.
echo "== cache: warm-run equivalence ==" >&2
CACHE_DIR="$JSON_DIR/cache"
DUPLO_JSON_STABLE=1 DUPLO_CACHE_DIR="$CACHE_DIR" \
    cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    run smem_policy --sample 2 --json "$JSON_DIR/smem_cold.json" \
    > "$JSON_DIR/stdout_cold.txt" 2> "$JSON_DIR/stderr_cold.txt"
DUPLO_JSON_STABLE=1 DUPLO_CACHE_DIR="$CACHE_DIR" \
    cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    run smem_policy --sample 2 --json "$JSON_DIR/smem_warm.json" \
    > "$JSON_DIR/stdout_warm.txt" 2> "$JSON_DIR/stderr_warm.txt"
cmp "$JSON_DIR/stdout_cold.txt" "$JSON_DIR/stdout_warm.txt" || {
    echo "stdout differs between cold and warm cache runs" >&2
    exit 1
}
cmp "$JSON_DIR/smem_cold.json" "$JSON_DIR/smem_warm.json" || {
    echo "stable JSON differs between cold and warm cache runs" >&2
    exit 1
}
grep -q 'cache: hits=0 ' "$JSON_DIR/stderr_cold.txt" || {
    echo "cold run unexpectedly hit the cache:" >&2
    cat "$JSON_DIR/stderr_cold.txt" >&2
    exit 1
}
grep -Eq 'cache: hits=[1-9][0-9]* misses=0 ' "$JSON_DIR/stderr_warm.txt" || {
    echo "warm run was not served entirely from cache:" >&2
    cat "$JSON_DIR/stderr_warm.txt" >&2
    exit 1
}

# Trace gate: `--trace` must (a) emit a Chrome trace-event document the
# in-tree validator accepts, (b) be byte-identical across thread counts,
# and (c) leave stdout and stable JSON byte-identical to a run with
# tracing off. DUPLO_LOG=off must fully silence stderr.
echo "== trace: export + validate + thread-count diff + zero-overhead ==" >&2
DUPLO_JSON_STABLE=1 DUPLO_THREADS=1 \
    cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    run fig10_hit_rate --sample 2 --no-cache \
    --json "$JSON_DIR/fig10_traced.json" --trace "$JSON_DIR/trace_t1.json" \
    > "$JSON_DIR/stdout_traced.txt"
DUPLO_JSON_STABLE=1 DUPLO_THREADS=4 \
    cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    run fig10_hit_rate --sample 2 --no-cache --trace "$JSON_DIR/trace_t4.json" \
    > /dev/null
cargo run -q --release --offline -p duplo-bench --bin json_check -- \
    "$JSON_DIR/trace_t1.json" "$JSON_DIR/trace_t4.json"
cmp "$JSON_DIR/trace_t1.json" "$JSON_DIR/trace_t4.json" || {
    echo "trace export differs between DUPLO_THREADS=1 and 4" >&2
    exit 1
}
# Capture to a file: grep -q would close the pipe on first match and the
# summarizer would die with a broken-pipe panic mid-write.
cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    trace summarize "$JSON_DIR/trace_t1.json" > "$JSON_DIR/trace_summary.txt"
grep -q 'phase' "$JSON_DIR/trace_summary.txt" || {
    echo "trace summarize produced no phase table" >&2
    exit 1
}
DUPLO_JSON_STABLE=1 DUPLO_THREADS=1 DUPLO_LOG=off \
    cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    run fig10_hit_rate --sample 2 --no-cache --json "$JSON_DIR/fig10_plain.json" \
    > "$JSON_DIR/stdout_plain.txt" 2> "$JSON_DIR/stderr_silent.txt"
cmp "$JSON_DIR/stdout_traced.txt" "$JSON_DIR/stdout_plain.txt" || {
    echo "stdout differs between traced and untraced runs" >&2
    exit 1
}
cmp "$JSON_DIR/fig10_traced.json" "$JSON_DIR/fig10_plain.json" || {
    echo "stable JSON differs between traced and untraced runs" >&2
    exit 1
}
if [ -s "$JSON_DIR/stderr_silent.txt" ]; then
    echo "DUPLO_LOG=off left stderr output:" >&2
    cat "$JSON_DIR/stderr_silent.txt" >&2
    exit 1
fi
# The same thread-count identity on the sliced memory side, which the flat
# fig10 trace never reaches: the `slices` counter track and the hot-slice
# fold (worst per-SM backlog, with its slice index).
echo "== trace: sliced export + validate + thread-count diff ==" >&2
for t in 1 4; do
    DUPLO_THREADS=$t cargo run -q --release --offline -p duplo-bench --bin duplo -- \
        run wl_slice_camp --sample 2 --no-cache --trace "$JSON_DIR/trace_camp_t$t.json" \
        > /dev/null
done
cargo run -q --release --offline -p duplo-bench --bin json_check -- \
    "$JSON_DIR/trace_camp_t1.json" "$JSON_DIR/trace_camp_t4.json"
cmp "$JSON_DIR/trace_camp_t1.json" "$JSON_DIR/trace_camp_t4.json" || {
    echo "sliced trace export differs between DUPLO_THREADS=1 and 4" >&2
    exit 1
}

# wtrace gate (1/2): the differential replay harness. For EVERY registry
# experiment, record -> encode -> decode -> replay must reproduce the
# generator path's ExperimentResult JSON and rendered table byte-for-byte.
# The full-registry sweep is #[ignore]d under the debug profile (three
# registry passes are too slow unoptimized), so run it here in release, at
# both pinned thread counts.
echo "== wtrace: differential replay, DUPLO_THREADS=1 ==" >&2
DUPLO_THREADS=1 cargo test -q --release --offline -p duplo-sim \
    --test wtrace_replay -- --ignored

echo "== wtrace: differential replay, DUPLO_THREADS=4 ==" >&2
DUPLO_THREADS=4 cargo test -q --release --offline -p duplo-sim \
    --test wtrace_replay -- --ignored

# wtrace gate (2/2): the CLI round trip. `duplo trace record` must write a
# decodable wtrace file, and `duplo run --trace-in` must replay it with
# stdout and stable JSON byte-identical to the direct generator run.
# --no-cache keeps the comparison honest: the replayed simulations cannot
# be served from the direct run's cache entries.
echo "== wtrace: CLI record/replay round trip ==" >&2
DUPLO_JSON_STABLE=1 \
    cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    trace record smem_policy "$JSON_DIR/smem.wtrace.json" --sample 2 --no-cache \
    --json "$JSON_DIR/smem_direct.json" > "$JSON_DIR/stdout_direct.txt"
test -s "$JSON_DIR/smem.wtrace.json" || {
    echo "trace record wrote no wtrace file" >&2
    exit 1
}
grep -q '"wtrace_version"' "$JSON_DIR/smem.wtrace.json" || {
    echo "recorded file carries no wtrace_version header" >&2
    exit 1
}
DUPLO_JSON_STABLE=1 \
    cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    run smem_policy --trace-in "$JSON_DIR/smem.wtrace.json" --sample 2 --no-cache \
    --json "$JSON_DIR/smem_replay.json" > "$JSON_DIR/stdout_replay.txt"
cmp "$JSON_DIR/stdout_direct.txt" "$JSON_DIR/stdout_replay.txt" || {
    echo "stdout differs between direct and --trace-in replay runs" >&2
    exit 1
}
cmp "$JSON_DIR/smem_direct.json" "$JSON_DIR/smem_replay.json" || {
    echo "stable JSON differs between direct and --trace-in replay runs" >&2
    exit 1
}

# Event-loop gate (1/2): every registry experiment must render the same
# table and structured result from the event-driven wakeup-wheel loop and
# the tick-by-tick reference loop, flat and with a 4-slice L2 (the wakeup
# wheel must stay exact with per-slice MSHR fill horizons in play). The
# suites are #[ignore]d in debug (the reference loop is too slow
# unoptimized), so run them here in release.
echo "== event loop: reference equivalence, flat and DUPLO_L2_SLICES=4 ==" >&2
for slices in "" 4; do
    DUPLO_L2_SLICES=$slices cargo test -q --release --offline -p duplo-sim \
        --test event_skip_quick --test event_skip_registry -- --ignored
done

# Event-loop gate (2/2): DUPLO_TICK_REFERENCE=1 pins the reference loop
# itself — the determinism suite must pass under it, and a reference-mode
# run must produce stable JSON byte-identical to the event-mode runs above.
echo "== event loop: reference-mode determinism + JSON equivalence ==" >&2
DUPLO_TICK_REFERENCE=1 DUPLO_THREADS=1 \
    cargo test -q --release --offline -p duplo-sim --test determinism
DUPLO_TICK_REFERENCE=1 DUPLO_THREADS=4 \
    cargo test -q --release --offline -p duplo-sim --test determinism
DUPLO_JSON_STABLE=1 DUPLO_TICK_REFERENCE=1 DUPLO_THREADS=4 \
    cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    run smem_policy --sample 2 --json "$JSON_DIR/smem_ref.json" > /dev/null
cmp "$JSON_DIR/smem_t1.json" "$JSON_DIR/smem_ref.json" || {
    echo "stable JSON differs between event-driven and reference loops" >&2
    exit 1
}

# Sliced-L2 gate (1/2): one slice must BE the flat model. With
# DUPLO_L2_SLICES=1 the sliced backend (slice tag array, bookkeeping MSHR,
# passthrough crossbar) must produce stdout and stable JSON byte-identical
# to the default flat hierarchy, under either partition hash.
echo "== sliced L2: slices=1 reproduces the flat model byte-for-byte ==" >&2
for hash in mod xor; do
    DUPLO_JSON_STABLE=1 DUPLO_THREADS=1 DUPLO_L2_SLICES=1 DUPLO_L2_HASH=$hash \
        cargo run -q --release --offline -p duplo-bench --bin duplo -- \
        run smem_policy --sample 2 --json "$JSON_DIR/smem_s1_$hash.json" \
        > "$JSON_DIR/stdout_s1_$hash.txt"
    cmp "$JSON_DIR/smem_t1.json" "$JSON_DIR/smem_s1_$hash.json" || {
        echo "slices=1 ($hash hash) stable JSON differs from the flat model" >&2
        exit 1
    }
    cmp "$JSON_DIR/stdout_flat.txt" "$JSON_DIR/stdout_s1_$hash.txt" || {
        echo "slices=1 ($hash hash) stdout differs from the flat model" >&2
        exit 1
    }
done

# Sliced-L2 gate (2/2): the deterministic cross-SM contention model. The
# determinism suite must pass with a 4-slice L2 at both pinned thread
# counts, and a sliced run's stable JSON must be thread-count invariant.
echo "== sliced L2: determinism at DUPLO_L2_SLICES=4 ==" >&2
DUPLO_L2_SLICES=4 DUPLO_THREADS=1 \
    cargo test -q --release --offline -p duplo-sim --test determinism
DUPLO_L2_SLICES=4 DUPLO_THREADS=4 \
    cargo test -q --release --offline -p duplo-sim --test determinism
DUPLO_JSON_STABLE=1 DUPLO_THREADS=1 \
    cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    run wl_slice_camp --sample 2 --no-cache \
    --json "$JSON_DIR/camp_t1.json" > /dev/null
DUPLO_JSON_STABLE=1 DUPLO_THREADS=4 \
    cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    run wl_slice_camp --sample 2 --no-cache \
    --json "$JSON_DIR/camp_t4.json" > /dev/null
cargo run -q --release --offline -p duplo-bench --bin json_check -- \
    "$JSON_DIR/camp_t1.json" "$JSON_DIR/camp_t4.json"
cmp "$JSON_DIR/camp_t1.json" "$JSON_DIR/camp_t4.json" || {
    echo "wl_slice_camp JSON differs between DUPLO_THREADS=1 and 4" >&2
    exit 1
}

# Telemetry gate (1/2): instrumentation must never perturb results. Run
# the full registry with the metrics registry hot and again with
# DUPLO_METRICS=off; stdout and every stable JSON document must be
# byte-identical. --no-cache keeps both passes honest (no cross-serving).
echo "== telemetry: DUPLO_METRICS on/off byte identity across the registry ==" >&2
mkdir -p "$JSON_DIR/metrics_on" "$JSON_DIR/metrics_off"
DUPLO_JSON_STABLE=1 \
    cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    run all --sample 2 --no-cache --json-dir "$JSON_DIR/metrics_on" \
    > "$JSON_DIR/stdout_metrics_on.txt" 2> /dev/null
DUPLO_JSON_STABLE=1 DUPLO_METRICS=off \
    cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    run all --sample 2 --no-cache --json-dir "$JSON_DIR/metrics_off" \
    > "$JSON_DIR/stdout_metrics_off.txt" 2> /dev/null
cmp "$JSON_DIR/stdout_metrics_on.txt" "$JSON_DIR/stdout_metrics_off.txt" || {
    echo "stdout differs between DUPLO_METRICS on and off" >&2
    exit 1
}
diff -r "$JSON_DIR/metrics_on" "$JSON_DIR/metrics_off" || {
    echo "stable JSON differs between DUPLO_METRICS on and off" >&2
    exit 1
}

# Serve gate: the HTTP daemon must serve a registry submission
# byte-identical to the direct CLI run, share its disk cache across the
# process boundary (a warm submit reports hits>0 misses=0), take a
# submission's options to mean what the same settings mean to `duplo run`,
# reject unknown experiments without dying, and drain cleanly on
# /v1/shutdown. `duplo serve` takes only the run options it honours: an
# output flag or its environment variable exits 2 before the daemon binds
# (the timeout catches a daemon that starts anyway).
echo "== serve: daemon round trip + warm disk cache + clean shutdown ==" >&2
for refused in --json --trace-in DUPLO_JSON_DIR DUPLO_TRACE; do
    case "$refused" in
        --*) flag=("$refused" "$JSON_DIR/refused") var=() ;;
        *) flag=() var=("$refused=$JSON_DIR/refused") ;;
    esac
    rc=0
    env "${var[@]}" timeout 10 target/release/duplo serve --addr 127.0.0.1:0 \
        --port-file "$JSON_DIR/refused.port" "${flag[@]}" \
        2> "$JSON_DIR/serve_refused.txt" || rc=$?
    if [ "$rc" -ne 2 ] || [ -e "$JSON_DIR/refused.port" ]; then
        echo "duplo serve $refused exited $rc (want 2, before binding):" >&2
        cat "$JSON_DIR/serve_refused.txt" >&2
        exit 1
    fi
done
SERVE_CACHE="$JSON_DIR/serve_cache"
DUPLO_JSON_STABLE=1 DUPLO_CACHE_DIR="$SERVE_CACHE" \
    cargo run -q --release --offline -p duplo-bench --bin duplo -- \
    run smem_policy --sample 2 --json "$JSON_DIR/serve_direct.json" > /dev/null 2>&1
DUPLO_JSON_STABLE=1 DUPLO_CACHE_DIR="$SERVE_CACHE" \
    target/release/duplo serve --addr 127.0.0.1:0 \
    --port-file "$JSON_DIR/serve.port" 2> "$JSON_DIR/serve_daemon.txt" &
SERVE_PID=$!
for _ in $(seq 100); do [ -s "$JSON_DIR/serve.port" ] && break; sleep 0.1; done
test -s "$JSON_DIR/serve.port" || {
    echo "daemon never wrote its port file:" >&2
    cat "$JSON_DIR/serve_daemon.txt" >&2
    exit 1
}
SERVE_ADDR=$(cat "$JSON_DIR/serve.port")
target/release/duplo submit --addr "$SERVE_ADDR" smem_policy --sample 2 \
    > "$JSON_DIR/serve_body.json" 2> "$JSON_DIR/serve_submit.txt"
cmp "$JSON_DIR/serve_direct.json" "$JSON_DIR/serve_body.json" || {
    echo "daemon response differs from the direct run" >&2
    exit 1
}
# The direct run populated the shared disk cache, so the submission above
# is the cross-process warm re-run: everything hits, nothing simulates.
grep -Eq 'cache: hits=[1-9][0-9]* misses=0' "$JSON_DIR/serve_submit.txt" || {
    echo "daemon submission was not served from the shared disk cache:" >&2
    cat "$JSON_DIR/serve_submit.txt" >&2
    exit 1
}
DUPLO_JSON_STABLE=1 DUPLO_L2_SLICES=4 DUPLO_L2_HASH=mod \
    target/release/duplo run smem_policy --sample 2 \
    --json "$JSON_DIR/serve_sliced_direct.json" > /dev/null 2>&1
target/release/duplo submit --addr "$SERVE_ADDR" smem_policy --sample 2 \
    --l2-slices 4 --l2-hash mod > "$JSON_DIR/serve_sliced_body.json" 2> /dev/null
cmp "$JSON_DIR/serve_sliced_direct.json" "$JSON_DIR/serve_sliced_body.json" || {
    echo "submitted --l2-slices/--l2-hash differ from DUPLO_L2_SLICES/DUPLO_L2_HASH" >&2
    exit 1
}
if target/release/duplo submit --addr "$SERVE_ADDR" no_such_experiment \
    > /dev/null 2> "$JSON_DIR/serve_404.txt"; then
    echo "daemon accepted an unknown experiment" >&2
    exit 1
fi
grep -q 'unknown experiment' "$JSON_DIR/serve_404.txt" || {
    echo "unknown-experiment submission lacked a structured error:" >&2
    cat "$JSON_DIR/serve_404.txt" >&2
    exit 1
}
# Telemetry gate (2/2): the live daemon's /v1/metrics, in both formats,
# via the `duplo metrics` scraper. The daemon runs under DUPLO_JSON_STABLE,
# so the scrape lists the stable families — the warm submission above must
# have moved the per-kernel run counter and the disk cache tier.
echo "== telemetry: /v1/metrics scrape from the live daemon ==" >&2
target/release/duplo metrics --addr "$SERVE_ADDR" > "$JSON_DIR/metrics.prom"
grep -q '^# TYPE duplo_gpu_runs_total counter' "$JSON_DIR/metrics.prom" || {
    echo "Prometheus scrape lacks the duplo_gpu_runs_total family:" >&2
    cat "$JSON_DIR/metrics.prom" >&2
    exit 1
}
grep -q 'duplo_cache_hits_total{tier="disk"}' "$JSON_DIR/metrics.prom" || {
    echo "Prometheus scrape lacks the per-tier cache counters:" >&2
    cat "$JSON_DIR/metrics.prom" >&2
    exit 1
}
target/release/duplo metrics --addr "$SERVE_ADDR" --json > "$JSON_DIR/metrics.json"
cargo run -q --release --offline -p duplo-bench --bin json_check -- \
    "$JSON_DIR/metrics.json"
grep -q '"duplo_sm_cycles"' "$JSON_DIR/metrics.json" || {
    echo "JSON scrape lacks the SM-loop profile gauges:" >&2
    cat "$JSON_DIR/metrics.json" >&2
    exit 1
}
target/release/duplo submit --addr "$SERVE_ADDR" --shutdown > /dev/null
wait "$SERVE_PID" || {
    echo "daemon exited non-zero:" >&2
    cat "$JSON_DIR/serve_daemon.txt" >&2
    exit 1
}

echo "tier-1 gate: OK" >&2
