#!/usr/bin/env sh
# Run the google-benchmark binaries with JSON output: kernel_micro and
# parallel_scaling combine into BENCH_kernel.json; serve_scaling (the
# fused-vs-per_shard fleet sweep plus the checkpoint restore-latency row)
# and stream_eval (the streaming-evaluator and scenario-perturbation
# sweep) combine into BENCH_serve.json, both at the repo root and each
# carrying its own build manifest.
# Usage: scripts/run_bench.sh [build-dir]
#
# Optional environment:
#   FALLSENSE_BENCH_FILTER   passed as --benchmark_filter (default: all)
#   FALLSENSE_THREADS        baseline pool size (sweeps override it per-run)
#   FALLSENSE_SIMD           kernel dispatch mode (scalar|native).  The
#                            manifests record the RESOLVED backend this
#                            requests on the build host (bench/simd_probe:
#                            scalar / neon / avx2-fma / avx512), not the
#                            requested mode.  The BM_*Simd rows pin the
#                            backend per-row regardless of this setting.
#   FALLSENSE_SIMD_BACKEND   caps the native backend tier (see nn/simd.hpp)
set -eu

BUILD_DIR="${1:-build}"
REPO_ROOT="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
OUT="$REPO_ROOT/BENCH_kernel.json"
SERVE_OUT="$REPO_ROOT/BENCH_serve.json"
FILTER="${FALLSENSE_BENCH_FILTER:-}"

KERNEL_BIN="$BUILD_DIR/bench/kernel_micro"
SCALING_BIN="$BUILD_DIR/bench/parallel_scaling"
SERVE_BIN="$BUILD_DIR/bench/serve_scaling"
STREAM_EVAL_BIN="$BUILD_DIR/bench/stream_eval"
SIMD_PROBE_BIN="$BUILD_DIR/bench/simd_probe"

for bin in "$KERNEL_BIN" "$SCALING_BIN" "$SERVE_BIN" "$STREAM_EVAL_BIN" \
           "$SIMD_PROBE_BIN"; do
    if [ ! -x "$bin" ]; then
        echo "error: $bin not found or not executable; build first:" >&2
        echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
        exit 1
    fi
done

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT INT TERM

run_bench() {
    # run_bench <binary> <json-out>
    if [ -n "$FILTER" ]; then
        "$1" --benchmark_format=json --benchmark_out="$2" \
             --benchmark_out_format=json --benchmark_filter="$FILTER" \
             >/dev/null
    else
        "$1" --benchmark_format=json --benchmark_out="$2" \
             --benchmark_out_format=json >/dev/null
    fi
    # A filter matching nothing in this binary leaves no output document;
    # substitute an empty object so the combined file stays valid JSON.
    if [ ! -s "$2" ]; then
        printf '{}\n' > "$2"
    fi
}

echo ">>> kernel_micro"
run_bench "$KERNEL_BIN" "$TMP_DIR/kernel_micro.json"
echo ">>> parallel_scaling"
run_bench "$SCALING_BIN" "$TMP_DIR/parallel_scaling.json"
echo ">>> serve_scaling"
run_bench "$SERVE_BIN" "$TMP_DIR/serve_scaling.json"
echo ">>> stream_eval"
run_bench "$STREAM_EVAL_BIN" "$TMP_DIR/stream_eval.json"

# Run manifest: thread count plus the build configuration the binaries
# were compiled with, read from the CMake cache so the numbers in the
# output files carry their own provenance.
cache_value() {
    # cache_value <CACHE_VARIABLE> <default>
    if [ -f "$BUILD_DIR/CMakeCache.txt" ]; then
        v="$(sed -n "s/^$1:[A-Z]*=//p" "$BUILD_DIR/CMakeCache.txt" | head -n 1)"
        printf '%s' "${v:-$2}"
    else
        printf '%s' "$2"
    fi
}

THREADS="${FALLSENSE_THREADS:-$(nproc 2>/dev/null || echo 1)}"
# The backend the dispatch layer resolves under the current environment —
# what actually ran, not what FALLSENSE_SIMD requested.
SIMD_BACKEND="$("$SIMD_PROBE_BIN")"
BUILD_TYPE="$(cache_value CMAKE_BUILD_TYPE unknown)"
NATIVE_ARCH="$(cache_value FALLSENSE_NATIVE_ARCH OFF)"
SANITIZE="$(cache_value FALLSENSE_SANITIZE OFF)"

# Combine into JSON objects keyed by binary name, prefixed with the
# manifest.  Plain shell concatenation: the benchmark inputs are complete
# JSON documents emitted by google-benchmark, so wrapping them needs no
# JSON parser.
print_manifest() {
    printf '"manifest": {\n'
    printf '  "threads": %s,\n' "$THREADS"
    printf '  "simd": "%s",\n' "$SIMD_BACKEND"
    printf '  "build_type": "%s",\n' "$BUILD_TYPE"
    printf '  "native_arch": "%s",\n' "$NATIVE_ARCH"
    printf '  "sanitize": "%s",\n' "$SANITIZE"
    printf '  "filter": "%s"\n' "$FILTER"
    printf '}'
}

# Dispatch speedups: kernel_micro registers each BM_*Simd benchmark once
# per probed backend (BM_*Simd/backend:<label>); divide every vector row's
# real_time into the scalar row of the same kernel, producing one ratio
# object per kernel.  awk keeps the script free of JSON tooling —
# google-benchmark emits one "name"/"real_time" pair per row.
simd_speedups() {
    awk '
        /"name":/ {
            name = $0
            sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        }
        /"real_time":/ && name ~ /Simd\/backend:[a-z0-9-]+$/ {
            t = $0
            sub(/.*"real_time": /, "", t); sub(/[,[:space:]].*/, "", t)
            base = name
            sub(/\/backend:[a-z0-9-]+$/, "", base)
            backend = name
            sub(/.*\/backend:/, "", backend)
            if (!(base in seen_base)) { seen_base[base] = 1; bases[nb++] = base }
            if (backend == "scalar") scalar[base] = t + 0
            else {
                if (!(backend in seen_backend)) {
                    seen_backend[backend] = 1
                    backends[nv++] = backend
                }
                vec[base "|" backend] = t + 0
            }
        }
        END {
            sep = ""
            for (i = 0; i < nb; i++) {
                b = bases[i]
                if (!(scalar[b] > 0)) continue
                inner = ""
                isep = ""
                for (j = 0; j < nv; j++) {
                    v = backends[j]
                    if (vec[b "|" v] > 0) {
                        inner = inner sprintf("%s\"%s\": %.3f", isep, v, \
                                              scalar[b] / vec[b "|" v])
                        isep = ", "
                    }
                }
                if (inner != "") {
                    printf "%s  \"%s\": {%s}", sep, b, inner
                    sep = ",\n"
                }
            }
            printf "\n"
        }
    ' "$TMP_DIR/kernel_micro.json"
}

# Checkpoint restore latency: the BM_FleetRestoreSessions rows from
# serve_scaling — fleet_router::restore of a warmed 4096-session snapshot.
restore_latency() {
    awk '
        /"name":/ {
            name = $0
            sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        }
        /"real_time":/ && name ~ /^BM_FleetRestoreSessions\// {
            t = $0
            sub(/.*"real_time": /, "", t); sub(/[,[:space:]].*/, "", t)
            if (!(name in seen)) { seen[name] = 1; order[n++] = name }
            rt[name] = t + 0
        }
        /"time_unit":/ && name ~ /^BM_FleetRestoreSessions\// {
            u = $0
            sub(/.*"time_unit": "/, "", u); sub(/".*/, "", u)
            unit[name] = u
        }
        END {
            sep = ""
            for (i = 0; i < n; i++) {
                b = order[i]
                printf "%s  \"%s\": {\"real_time\": %.3f, \"time_unit\": \"%s\"}", \
                       sep, b, rt[b], unit[b]
                sep = ",\n"
            }
            printf "\n"
        }
    ' "$TMP_DIR/serve_scaling.json"
}

{
    printf '{\n'
    print_manifest
    printf ',\n"kernel_micro":\n'
    cat "$TMP_DIR/kernel_micro.json"
    printf ',\n"parallel_scaling":\n'
    cat "$TMP_DIR/parallel_scaling.json"
    printf ',\n"simd_speedup": {\n'
    simd_speedups
    printf '}\n'
    printf '}\n'
} > "$OUT"

echo ">>> simd speedup (scalar real_time / backend real_time)"
simd_speedups

{
    printf '{\n'
    print_manifest
    printf ',\n"serve_scaling":\n'
    cat "$TMP_DIR/serve_scaling.json"
    printf ',\n"stream_eval":\n'
    cat "$TMP_DIR/stream_eval.json"
    printf ',\n"restore_latency": {\n'
    restore_latency
    printf '}\n'
    printf '}\n'
} > "$SERVE_OUT"

echo "wrote $OUT"
echo "wrote $SERVE_OUT"
