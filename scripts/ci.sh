#!/usr/bin/env bash
# CI driver: build and run the test suite in the configurations that
# matter — an optimized Release build (what users run), an
# AddressSanitizer build (what catches memory bugs the tests would
# otherwise miss), and a ThreadSanitizer build that runs the whole suite
# with the chunk pipeline forced multi-threaded. Usage:
#
#   scripts/ci.sh                  # Release + ASan + TSan
#   scripts/ci.sh release          # one configuration only
#   scripts/ci.sh asan
#   scripts/ci.sh tsan
#   scripts/ci.sh scalar           # Release suite with ISOBAR_SIMD=scalar,
#                                  # pinning the kernel dispatch to the
#                                  # reference tier
#   scripts/ci.sh lzans            # Release suite with
#                                  # ISOBAR_FORCE_CODEC=lzans: every
#                                  # pipeline-level test runs with the
#                                  # LZ77+tANS solver forced
#   scripts/ci.sh notelemetry      # Release suite with telemetry compiled
#                                  # out (-DISOBAR_TELEMETRY=OFF): the
#                                  # instrumentation must vanish cleanly
#   scripts/ci.sh ubsan            # optional extra configuration
#   scripts/ci.sh fuzz             # fuzz smoke: corpus replay (+ short
#                                  # libFuzzer run when clang is available)
#   scripts/ci.sh bench            # bench smoke: run the kernel
#                                  # microbenchmarks and compare against
#                                  # BENCH_baseline.json (warn-only)
#   scripts/ci.sh server           # serving smoke: protocol-conformance
#                                  # tests, then a saturation run of a real
#                                  # isobard under isobar_loadgen (asserts
#                                  # zero protocol errors and a sane
#                                  # reject/accept split)
#   scripts/ci.sh perfbench        # benchmark-of-record self-test: builds
#                                  # perfbench against src/ and runs every
#                                  # workload once at tiny scale
#   scripts/ci.sh asan -R telemetry  # extra args are forwarded to ctest
#
# The tsan configuration exports ISOBAR_TEST_THREADS (default 4) so every
# test that leaves num_threads at 0 exercises the parallel pipeline under
# the race detector; set ISOBAR_TEST_THREADS yourself to override the
# worker count.
#
# Each configuration builds into its own directory (build-ci-<name>) so
# repeat runs are incremental and never disturb a developer's ./build.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Arguments that are not configuration names are passed through to ctest
# (e.g. `scripts/ci.sh asan -R telemetry`).
CONFIGS=()
CTEST_ARGS=()

run_config() {
  local name="$1"
  shift
  local dir="build-ci-${name}"
  echo "=== [${name}] configure ==="
  cmake -B "${dir}" -S . "$@"
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== [${name}] test ==="
  if [ "${name}" = "tsan" ]; then
    # Force the chunk pipeline multi-threaded for every test that leaves
    # the thread count at its default, so TSan actually sees the races.
    ISOBAR_TEST_THREADS="${ISOBAR_TEST_THREADS:-4}" \
      ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
        ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
  elif [ "${name}" = "scalar" ]; then
    # Pin kernel dispatch to the scalar reference tier: every suite result
    # (and container byte) must match the vectorized tiers.
    ISOBAR_SIMD=scalar \
      ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
        ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
  elif [ "${name}" = "lzans" ]; then
    # Force the LZ77+tANS solver for every pipeline that doesn't pick a
    # codec explicitly: the whole suite must round-trip through it.
    ISOBAR_FORCE_CODEC=lzans \
      ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
        ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
  else
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
      ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
  fi
  echo "=== [${name}] OK ==="
}

release() {
  run_config release \
    -DCMAKE_BUILD_TYPE=Release \
    -DISOBAR_WERROR=ON
}

asan() {
  run_config asan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DISOBAR_SANITIZE=address \
    -DISOBAR_BUILD_BENCHMARKS=OFF
  # Second, focused pass over the container-read suites: the read plan
  # does exactly the offset arithmetic the index footer enables, and the
  # salvage paths size outputs from damaged records, which is where an
  # off-by-one becomes a heap over-read — worth a dedicated lane entry so
  # a failure names the feature, not just the build.
  echo "=== [asan] container-read focus ==="
  ctest --test-dir build-ci-asan --output-on-failure -j "${JOBS}" \
    -R 'RangeReadTest|ColumnReadTest|SeekToChunkTest|FooterIdentityTest|Salvage|ReaderAgreementTest'
  echo "=== [asan] container-read focus OK ==="
}

tsan() {
  run_config tsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DISOBAR_SANITIZE=thread \
    -DISOBAR_BUILD_BENCHMARKS=OFF
}

ubsan() {
  run_config ubsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DISOBAR_SANITIZE=undefined \
    -DISOBAR_BUILD_BENCHMARKS=OFF
  # Second pass with the LZ77+tANS solver forced: the tANS bit readers
  # and state machines are exactly where a shift-width or overflow bug
  # would hide, so the whole suite runs through them under UBSan too.
  echo "=== [ubsan] lzans-forced pass ==="
  ISOBAR_FORCE_CODEC=lzans \
    ctest --test-dir build-ci-ubsan --output-on-failure -j "${JOBS}" \
      ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
  echo "=== [ubsan] lzans-forced pass OK ==="
}

scalar() {
  run_config scalar \
    -DCMAKE_BUILD_TYPE=Release \
    -DISOBAR_WERROR=ON
}

lzans() {
  run_config lzans \
    -DCMAKE_BUILD_TYPE=Release \
    -DISOBAR_WERROR=ON
}

# Telemetry compiled out: spans, the timeline, and the metrics registry
# all collapse to no-ops, and the suite (minus the telemetry-only tests,
# which skip themselves) must still pass. Guards against instrumentation
# creeping into hot paths without a kCompiledIn gate.
notelemetry() {
  run_config notelemetry \
    -DCMAKE_BUILD_TYPE=Release \
    -DISOBAR_TELEMETRY=OFF \
    -DISOBAR_WERROR=ON
}

# Bench smoke: run the kernel microbenchmarks briefly and compare against
# the committed BENCH_baseline.json — strict for the stable single-thread
# kernel/codec rows (a >40% drop fails CI), warn-only for anything matched
# by the noisy-row pattern. The end-to-end scenario sweep (bench_pipeline)
# is always compared warn-only against BENCH_e2e.json: whole-pipeline,
# multi-threaded numbers swing too much with machine load to gate on. The
# JSON artifacts are kept (paths in ISOBAR_BENCH_JSON /
# ISOBAR_BENCH_E2E_JSON) so trends are inspectable.
bench() {
  local name=bench
  local dir="build-ci-${name}"
  local out="${ISOBAR_BENCH_JSON:-${dir}/bench_smoke.json}"
  local e2e_out="${ISOBAR_BENCH_E2E_JSON:-${dir}/bench_e2e_smoke.json}"
  echo "=== [${name}] configure ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${JOBS}" --target bench_micro bench_pipeline
  echo "=== [${name}] run ==="
  "${dir}/bench/bench_micro" \
    --benchmark_filter='Kernel|Crc32c|BwtCompressRepetitive|^BM_HistogramUpdate$|^BM_GatherColumns|^BM_ScatterColumns|^BM_HuffmanEncode$|^BM_HuffmanDecode$|^BM_LzssEncode$|^BM_LzssDecode$|^BM_LzAnsCompress$|^BM_LzAnsDecompress$|^BM_TansEncode$|^BM_TansDecode$|^BM_MtfEncode$|^BM_RunScan$' \
    --benchmark_min_time="${ISOBAR_BENCH_MIN_TIME:-0.1}" \
    --benchmark_format=json > "${out}"
  echo "=== [${name}] compare ==="
  python3 scripts/bench_regression.py "${out}" --strict \
    --warn-only-pattern 'MT/|/threads:|^BM_E2e'
  echo "=== [${name}] e2e run ==="
  "${dir}/bench/bench_pipeline" \
    --benchmark_min_time="${ISOBAR_BENCH_MIN_TIME:-0.1}" \
    --benchmark_format=json > "${e2e_out}"
  echo "=== [${name}] e2e compare ==="
  python3 scripts/bench_regression.py "${e2e_out}" --baseline BENCH_e2e.json
  echo "=== [${name}] timeline trace ==="
  # One 8-worker scenario with the cross-thread timeline on: the Chrome
  # trace JSON (load it at ui.perfetto.dev) is kept as a CI artifact so a
  # scheduling regression can be eyeballed, not just inferred from rates.
  local trace_out="${ISOBAR_BENCH_TIMELINE:-${dir}/bench_timeline_trace.json}"
  "${dir}/bench/bench_pipeline" \
    --threads=8 \
    --trace-timeline="${trace_out}" \
    --benchmark_filter='^BM_E2eCompress/solver:zlib/threads:8' \
    --benchmark_min_time="${ISOBAR_BENCH_MIN_TIME:-0.1}" \
    --benchmark_format=console > /dev/null
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${trace_out}"
  echo "timeline trace written to ${trace_out}"
  echo "=== [${name}] OK ==="
}

# Serving smoke: the protocol/admission/server conformance tests, then a
# saturation run against a real daemon — isobard with a deliberately small
# queue, isobar_loadgen closed-loop on 4 connections for
# ISOBAR_SERVER_SMOKE_SECONDS (default 10). The loadgen's exit code
# asserts zero protocol errors, zero byte-identity failures, and zero
# dropped replies; the Python check then asserts the reject/accept split
# is sane (some work served, some shed — a saturated bounded queue must do
# both) and that the STATS snapshot agrees with the client-side counts.
# A second, 3 s pass against a fresh daemon lets EUPA choose every
# compress pipeline (--codec=auto) and byte-compares each reply with the
# loadgen's own library call: the selection is deterministic across
# processes. The loadgen reports and STATS snapshot land in
# build-ci-server/ (the first pass's paths overridable via
# ISOBAR_SERVER_REPORT / ISOBAR_SERVER_STATS; the auto pass writes
# server_auto_loadgen.json) and are kept as CI artifacts.
server() {
  local name=server
  local dir="build-ci-${name}"
  local sock="/tmp/isobard-ci-$$.sock"
  local report="${ISOBAR_SERVER_REPORT:-${dir}/server_loadgen.json}"
  local stats="${ISOBAR_SERVER_STATS:-${dir}/server_stats.json}"
  local seconds="${ISOBAR_SERVER_SMOKE_SECONDS:-10}"
  echo "=== [${name}] configure ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release -DISOBAR_WERROR=ON
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${JOBS}" \
    --target isobard isobar_loadgen isobar_stat bench_server isobar_tests
  echo "=== [${name}] conformance tests ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
    -R 'ProtocolTest|JobQueueTest|ServerTest' \
    ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
  echo "=== [${name}] saturation smoke (${seconds}s) ==="
  # Exit code 1 on any protocol error / verify failure / dropped reply.
  serve_and_load "${dir}" "${sock}" \
    --connections=4 --duration="${seconds}" \
    --json="${report}" --stats-out="${stats}"
  echo "=== [${name}] check report ==="
  python3 - "${report}" "${stats}" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
stats = json.load(open(sys.argv[2]))
assert report["protocol_errors"] == 0, report
assert report["verify_failures"] == 0, report
assert report["unanswered"] == 0, report
# The workload is entirely valid requests: any kError is a server bug.
assert report["errors"] == 0, report
# A saturated bounded queue both serves and sheds: an all-OK run means the
# smoke never reached saturation, an all-BUSY run means nothing was served.
assert report["ok"] > 0, report
assert report["busy"] > 0, report
# Every request got exactly one reply.
answered = report["ok"] + report["busy"] + report["errors"]
assert answered == report["requests_sent"], report
counters = stats["counters"]
# Server-side accounting must agree with the client-side tally. BUSY
# replies map 1:1 to admission rejections (the rejection is tallied
# before the reply is enqueued, so the count is exact). Completed jobs
# may lag the OK replies by up to the worker count: the response callback
# runs before the job is marked complete, and the STATS snapshot can land
# in that window.
assert counters["server.rejected"] == report["busy"], (counters, report)
lag = report["ok"] - counters["server.completed"]
assert 0 <= lag <= counters["server.workers"], (counters, report)
assert counters["server.requests"] > 0
# 4 loadgen workers + the stats/shutdown connection.
assert counters["server.connections.accepted"] >= 5, counters
print("serving smoke OK: %d ok, %d busy of %d requests (%.0f req/s)" % (
    report["ok"], report["busy"], report["requests_sent"],
    report["requests_per_second"]))
EOF
  echo "=== [${name}] stats inspector ==="
  "${dir}/examples/isobar_stat" print "${stats}" | grep -q 'server\.requests'
  echo "=== [${name}] auto-selection verify (3s) ==="
  serve_and_load "${dir}" "${sock}" \
    --connections=4 --duration=3 --codec=auto \
    --json="${dir}/server_auto_loadgen.json"
  python3 - "${dir}/server_auto_loadgen.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["verify_failures"] == 0, report
assert report["unanswered"] == 0, report
assert report["protocol_errors"] == 0, report
# Something must actually have been compressed and checked.
assert report["compress_ok"] > 0, report
print("auto-selection verify OK: %d compress replies byte-identical" %
      report["compress_ok"])
EOF
  echo "=== [${name}] OK ==="
}

# Starts a fresh isobard (2 workers, queue depth 8) on socket $2 from build
# directory $1, runs isobar_loadgen against it with the remaining
# arguments plus --shutdown, and waits for the daemon to exit.
serve_and_load() {
  local dir="$1"
  local sock="$2"
  shift 2
  rm -f "${sock}"
  "${dir}/examples/isobard" --unix="${sock}" --threads=2 --queue-depth=8 &
  local daemon_pid=$!
  trap 'kill "${daemon_pid}" 2>/dev/null || true; rm -f "${sock}"' RETURN
  for _ in $(seq 1 50); do
    [ -S "${sock}" ] && break
    sleep 0.1
  done
  [ -S "${sock}" ] || { echo "isobard never bound ${sock}" >&2; return 1; }
  "${dir}/examples/isobar_loadgen" --unix="${sock}" "$@" --shutdown
  wait "${daemon_pid}"
  trap - RETURN
  rm -f "${sock}"
}

# Fuzz smoke: build the decompress fuzzer (ASan-instrumented), generate
# the seed corpus with make_corpus — including the v1, damaged-footer,
# and streamed-container seeds that steer exploration at the index
# footer — and replay it. With clang — the only compiler shipping
# libFuzzer — also run a short time-boxed fuzz session; with other
# compilers the target is a plain replay driver, which still exercises
# every corpus seed through all three chunk-error policies (and the
# range/column/seek entry points).
fuzz() {
  local name=fuzz
  local dir="build-ci-${name}"
  local fuzz_seconds="${ISOBAR_FUZZ_SECONDS:-30}"
  echo "=== [${name}] configure ==="
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DISOBAR_FUZZ=ON \
    -DISOBAR_SANITIZE=address \
    -DISOBAR_BUILD_TESTS=OFF \
    -DISOBAR_BUILD_BENCHMARKS=OFF \
    -DISOBAR_BUILD_EXAMPLES=OFF
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${JOBS}" \
    --target decompress_fuzzer codec_roundtrip_fuzzer make_corpus
  echo "=== [${name}] corpus ==="
  "${dir}/fuzz/make_corpus" "${dir}/corpus"
  echo "=== [${name}] replay ==="
  for fuzzer in decompress_fuzzer codec_roundtrip_fuzzer; do
    if "${dir}/fuzz/${fuzzer}" -help=1 >/dev/null 2>&1; then
      # libFuzzer binary: corpus replay plus a bounded fuzzing session.
      "${dir}/fuzz/${fuzzer}" -runs=0 "${dir}/corpus"
      "${dir}/fuzz/${fuzzer}" -max_total_time="${fuzz_seconds}" \
        -max_len=65536 "${dir}/corpus"
    else
      "${dir}/fuzz/${fuzzer}" "${dir}/corpus"
    fi
  done
  echo "=== [${name}] OK ==="
}

# Benchmark-of-record self-test: perfbench compiles against src/ and calls
# the container:: parse functions directly, so an API break should fail
# here rather than in the next benchmark run. run.py builds into
# .bench_build/ (or $CARGO_TARGET_DIR), runs every workload once at tiny
# scale in both modes, and checks the result schema and that a corrupted
# container is counted as failed operations.
perfbench() {
  echo "=== [perfbench] self-test ==="
  python3 perfbench/run.py --self-test
  echo "=== [perfbench] OK ==="
}

for arg in "$@"; do
  case "${arg}" in
    release|asan|tsan|scalar|lzans|notelemetry|ubsan|fuzz|bench|server|perfbench) CONFIGS+=("${arg}") ;;
    *) CTEST_ARGS+=("${arg}") ;;
  esac
done

if [ "${#CONFIGS[@]}" -eq 0 ]; then
  CONFIGS=(release asan tsan)
fi

for config in "${CONFIGS[@]}"; do
  "${config}"
done
