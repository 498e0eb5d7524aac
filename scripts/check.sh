#!/usr/bin/env bash
# Sanitizer CI check: build everything with ASan+UBSan (findings are fatal —
# -fno-sanitize-recover=all), run the full test suite, smoke-test the
# jsr_lint CLI on the bundled dropper sample, then run a fixed-seed
# jsr_fuzz pass (lexer/parser/printer/linter/deob oracles under sanitizers).
#
#   $ scripts/check.sh            # build dir: build-asan
#   $ BUILD_DIR=... scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build-asan}"

echo "== configure (${BUILD_DIR}, JSR_SANITIZE=ON)"
cmake -B "${BUILD_DIR}" -S . -DJSR_SANITIZE=ON > /dev/null

echo "== build"
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# The suite carries the serving stack under the sanitizers: serve_test
# (socketpair and TCP clients, framing, dispatch), admin_test (/metrics
# scrapes mid-stream), model_artifact_test (mmap attach and validation) and
# ast_layout_test (parse and compaction at widths 1/2/8).
echo "== ctest (ASan+UBSan)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" \
      -E '^script_analysis_test$'

# The parse-once suite (one memoized ScriptAnalysis shared by concurrent
# consumers, parse-count accounting, verdicts over a shared AnalyzedCorpus
# equal to per-call analyses, and detectors trained on a shared
# AnalyzedCorpus equal to ones trained on sources, at thread widths 1/2/8)
# runs as its own step so a sanitizer finding in the parse-once layer is
# attributed unambiguously.
echo "== script_analysis equivalence (ASan+UBSan)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure \
      -R '^script_analysis_test$'

echo "== jsr_lint smoke"
"${BUILD_DIR}/tools/jsr_lint" examples/samples/dropper.js
json_out="$("${BUILD_DIR}/tools/jsr_lint" --json examples/samples/dropper.js)"
if command -v python3 > /dev/null; then
  echo "${json_out}" | python3 -m json.tool > /dev/null
  echo "jsr_lint --json output is valid JSON"
fi
case "${json_out}" in
  *'"rule_id":"M01"'*) echo "jsr_lint smoke: M01 fired as expected" ;;
  *) echo "jsr_lint smoke FAILED: expected an M01 diagnostic" >&2; exit 1 ;;
esac

# Deobfuscation smoke under sanitizers: the CLI on the dropper sample (both
# plain and --stats paths), and `jsr_lint --deob` linting the normalized
# form of the same file.
echo "== jsr_deob smoke (ASan+UBSan)"
"${BUILD_DIR}/tools/jsr_deob" examples/samples/dropper.js > /dev/null
"${BUILD_DIR}/tools/jsr_deob" --stats examples/samples/dropper.js
"${BUILD_DIR}/tools/jsr_lint" --deob examples/samples/dropper.js

# Fixed-seed mutational fuzz pass under the same sanitizer build: every
# iteration checks the five frontend oracles (never-crash, print→reparse
# round trip, obfuscate-still-parses, linter totality, deob totality +
# idempotence — plus the up-front deob verdict sweep and the artifact
# corruption sweep O6: truncated/bit-flipped JSRM artifacts must raise
# ModelFormatError, never crash or silently change verdicts, and resealed
# payload flips must raise ModelFormatError or classify without a crash or
# an exception). Deterministic, so a failure here reproduces with the same
# command. Throughput lands in BENCH_fuzz.json.
echo "== jsr_fuzz smoke (seed 1, 2000 iters, ASan+UBSan)"
"${BUILD_DIR}/tools/jsr_fuzz" --seed 1 --iters 2000 --quiet \
    --json "${BUILD_DIR}/BENCH_fuzz.json"

# Observability smoke under the same sanitizer build: jsr_stats trains
# JSRevealer plus the four baselines, evaluates them over a shared analyzed
# corpus (exercising every instrumented layer), explains the dropper sample,
# and exports metrics + deterministic metrics + a Chrome trace. Every emitted
# artifact — including the fuzz envelope above — is then gated through
# `jsr_stats --validate`, which checks well-formed JSON plus the shared BENCH
# envelope / Chrome trace-event schema.
echo "== jsr_stats smoke (ASan+UBSan)"
"${BUILD_DIR}/tools/jsr_stats" --scripts 18 --seed 1 \
    --metrics "${BUILD_DIR}/stats_metrics.json" \
    --deterministic "${BUILD_DIR}/stats_deterministic.json" \
    --trace "${BUILD_DIR}/stats_trace.json" \
    --prom "${BUILD_DIR}/stats_metrics.prom" \
    --explain examples/samples/dropper.js
# The offline converter must agree with the live --prom path byte for byte:
# both are the same snapshot through the same exposition writer.
"${BUILD_DIR}/tools/jsr_stats" --prom-from "${BUILD_DIR}/stats_metrics.json" \
    > "${BUILD_DIR}/stats_metrics_from.prom"
cmp "${BUILD_DIR}/stats_metrics.prom" "${BUILD_DIR}/stats_metrics_from.prom"
echo "jsr_stats: --prom and --prom-from render byte-identical expositions"

# Model-artifact lifecycle under sanitizers: train the same small model at
# parallel widths 1 and 4 and verify the two artifacts are byte-identical —
# training is deterministic at any width. `inspect` re-reads the result
# (header, section table, checksum pass) and `classify` exercises the mapped
# zero-copy inference path end to end.
echo "== jsr_model cross-width train-and-verify (ASan+UBSan)"
"${BUILD_DIR}/tools/jsr_model" train --scripts 16 --seed 5 --threads 1 \
    --out "${BUILD_DIR}/check_model.jsrm"
"${BUILD_DIR}/tools/jsr_model" train --scripts 16 --seed 5 --threads 4 \
    --out "${BUILD_DIR}/check_model_w4.jsrm"
cmp "${BUILD_DIR}/check_model.jsrm" "${BUILD_DIR}/check_model_w4.jsrm"
echo "jsr_model: artifacts trained at widths 1 and 4 are byte-identical"
"${BUILD_DIR}/tools/jsr_model" inspect "${BUILD_DIR}/check_model.jsrm" \
    > /dev/null
"${BUILD_DIR}/tools/jsr_model" classify "${BUILD_DIR}/check_model.jsrm" \
    examples/samples/dropper.js

# Serving smoke: the artifact trained above, served end to end through the
# jsr_serve daemon in --stdio mode. Three probes:
#   1. verdict parity and order — the daemon's verdicts for the sample
#      scripts must match `jsr_model classify` over the same model, byte for
#      byte, and come back with ids 1..N in request order (dropper.js goes
#      first, so at the default width the short scripts behind it finish
#      before it does),
#   2. failure containment — garbage on the wire must draw an error frame
#      and a clean exit 0, never a crash or sanitizer report,
#   3. graceful drain — a QUIT frame after the classifies still answers
#      every request before the BYE.
echo "== jsr_serve stdio smoke (ASan+UBSan)"
serve_in="${BUILD_DIR}/serve_smoke_inputs"
rm -rf "${serve_in}" && mkdir -p "${serve_in}"
cp examples/samples/dropper.js "${serve_in}/dropper.js"
printf 'var x = 1 + 2;\nconsole.log(x);\n' > "${serve_in}/benign.js"
printf 'function broken( {\n' > "${serve_in}/broken.js"
serve_files=("${serve_in}/dropper.js" "${serve_in}/benign.js" "${serve_in}/broken.js")
"${BUILD_DIR}/tools/jsr_serve" --encode "${serve_files[@]}" --quit \
    | "${BUILD_DIR}/tools/jsr_serve" --model "${BUILD_DIR}/check_model.jsrm" --stdio \
    | "${BUILD_DIR}/tools/jsr_serve" --decode > "${BUILD_DIR}/serve_smoke.out"
daemon_ids="$(awk -F'\t' '$2 ~ /^[01]$/ { print $1 }' "${BUILD_DIR}/serve_smoke.out")"
if [ "${daemon_ids}" != "$(seq 1 "${#serve_files[@]}")" ]; then
  echo "jsr_serve smoke FAILED: verdict ids not 1..${#serve_files[@]} in order" >&2
  echo "ids: ${daemon_ids}" >&2
  exit 1
fi
daemon_verdicts="$(awk -F'\t' '$2 ~ /^[01]$/ { print $2 }' "${BUILD_DIR}/serve_smoke.out")"
library_verdicts="$("${BUILD_DIR}/tools/jsr_model" classify \
    "${BUILD_DIR}/check_model.jsrm" "${serve_files[@]}" | cut -f1)"
if [ "${daemon_verdicts}" != "${library_verdicts}" ]; then
  echo "jsr_serve smoke FAILED: daemon verdicts diverge from jsr_model classify" >&2
  echo "daemon:  ${daemon_verdicts}" >&2
  echo "library: ${library_verdicts}" >&2
  exit 1
fi
grep -q 'BYE' "${BUILD_DIR}/serve_smoke.out" \
    || { echo "jsr_serve smoke FAILED: no BYE after QUIT drain" >&2; exit 1; }
echo "jsr_serve: daemon verdicts match jsr_model classify, in request order; QUIT drained"
# Deterministic malformed-frame sweep: plain garbage, a truncated header,
# and an oversized length field — the daemon must answer with an error
# frame (or wait out the truncation) and exit 0 on every one.
printf 'this is definitely not a frame' \
    | "${BUILD_DIR}/tools/jsr_serve" --model "${BUILD_DIR}/check_model.jsrm" \
        --stdio > /dev/null
printf 'JR\x01\x00\x01\x00\x00' \
    | "${BUILD_DIR}/tools/jsr_serve" --model "${BUILD_DIR}/check_model.jsrm" \
        --stdio > /dev/null
printf 'JR\x01\x00\x01\x00\x00\x00\xff\xff\xff\xff' \
    | "${BUILD_DIR}/tools/jsr_serve" --model "${BUILD_DIR}/check_model.jsrm" \
        --stdio > /dev/null
echo "jsr_serve: malformed-frame sweep survived (exit 0 on all three)"

# Admin telemetry plane smoke: the daemon on a Unix socket with --admin 0
# (ephemeral port, announced on stdout), probed through the built-in test
# client. /healthz must answer, /statusz must be valid JSON, and the
# /metrics exposition must pass jsr_stats's Prometheus validator and carry
# the build/model info gauges. SIGTERM must still shut the pair down
# cleanly (exit 0) with both listeners draining.
echo "== jsr_serve admin plane smoke (ASan+UBSan)"
admin_sock="${BUILD_DIR}/admin_smoke.sock"
admin_log="${BUILD_DIR}/admin_smoke.log"
rm -f "${admin_sock}"
"${BUILD_DIR}/tools/jsr_serve" --model "${BUILD_DIR}/check_model.jsrm" \
    --unix "${admin_sock}" --admin 0 \
    > "${admin_log}" 2> "${BUILD_DIR}/admin_smoke.err" &
admin_pid=$!
admin_ep=""
for _ in $(seq 1 100); do
  admin_ep="$(awk '/^admin /{print $2; exit}' "${admin_log}")"
  [ -n "${admin_ep}" ] && break
  sleep 0.1
done
if [ -z "${admin_ep}" ]; then
  echo "admin smoke FAILED: no 'admin HOST:PORT' announcement" >&2
  kill "${admin_pid}" 2> /dev/null || true
  exit 1
fi
"${BUILD_DIR}/tools/jsr_serve" --admin-get "${admin_ep}" /healthz
"${BUILD_DIR}/tools/jsr_serve" --admin-get "${admin_ep}" /statusz \
    > "${BUILD_DIR}/admin_statusz.json"
if command -v python3 > /dev/null; then
  python3 -m json.tool "${BUILD_DIR}/admin_statusz.json" > /dev/null
  echo "admin /statusz is valid JSON"
fi
# One CLASSIFY frame for the dropper sample before the scrape: the daemon
# books each request's stages, its queue wait included, into
# stage_ms{stage}, which /metrics renders as jsr_stage_seconds.
if command -v python3 > /dev/null; then
  python3 - "${admin_sock}" examples/samples/dropper.js <<'PY'
import socket, struct, sys
source = open(sys.argv[2], "rb").read()
with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
    s.settimeout(30)
    s.connect(sys.argv[1])
    s.sendall(b"JR\x01\x00" + struct.pack("<II", 7, len(source)) + source)
    reply = b""
    while len(reply) < 12:
        chunk = s.recv(64)
        if not chunk:
            sys.exit("classify: EOF before VERDICT")
        reply += chunk
    if reply[2] != 0x81:
        sys.exit(f"classify: expected VERDICT, got type {reply[2]:#x}")
PY
fi
"${BUILD_DIR}/tools/jsr_serve" --admin-get "${admin_ep}" /metrics \
    > "${BUILD_DIR}/admin_metrics.prom"
"${BUILD_DIR}/tools/jsr_stats" --validate "${BUILD_DIR}/admin_metrics.prom"
grep -q '^jsr_build_info{' "${BUILD_DIR}/admin_metrics.prom" \
    || { echo "admin smoke FAILED: jsr_build_info gauge missing" >&2; exit 1; }
grep -q '^jsr_model_info{' "${BUILD_DIR}/admin_metrics.prom" \
    || { echo "admin smoke FAILED: jsr_model_info gauge missing" >&2; exit 1; }
if command -v python3 > /dev/null; then
  awk '$1 == "jsr_stage_seconds_count{stage=\"path_traversal\"}" && $2 >= 1 {
         traversal = 1 }
       $1 == "jsr_stage_seconds_count{stage=\"queue\"}" && $2 >= 1 {
         queue = 1 }
       END { exit !(traversal && queue) }' "${BUILD_DIR}/admin_metrics.prom" \
      || { echo "admin smoke FAILED: no path_traversal or queue stage sample" >&2
           kill "${admin_pid}" 2> /dev/null || true; exit 1; }
  echo "admin /metrics exports the daemon's per-request stage series"
fi
# Connection-layer bound: 3000 sequential one-PING connections to the frame
# socket. A connection thread that is never joined keeps its stack mapped,
# so /proc/PID/maps must stay nearly flat; the admin plane must still answer.
if command -v python3 > /dev/null; then
  maps_before="$(wc -l < "/proc/${admin_pid}/maps")"
  python3 - "${admin_sock}" <<'PY'
import socket, struct, sys
ping = b"JR\x02\x00" + struct.pack("<II", 1, 0)
for i in range(3000):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(10)
        s.connect(sys.argv[1])
        s.sendall(ping)
        reply = b""
        while len(reply) < 12:
            chunk = s.recv(64)
            if not chunk:
                sys.exit(f"connection {i}: EOF before PONG")
            reply += chunk
        if reply[2] != 0x82:
            sys.exit(f"connection {i}: expected PONG, got type {reply[2]:#x}")
PY
  maps_after="$(wc -l < "/proc/${admin_pid}/maps")"
  echo "3000 connections: /proc/PID/maps ${maps_before} -> ${maps_after} lines"
  if [ $((maps_after - maps_before)) -ge 100 ]; then
    echo "admin smoke FAILED: connection threads are not reaped" >&2
    kill "${admin_pid}" 2> /dev/null || true
    exit 1
  fi
  "${BUILD_DIR}/tools/jsr_serve" --admin-get "${admin_ep}" /healthz
fi
kill -TERM "${admin_pid}"
wait "${admin_pid}"
echo "jsr_serve admin plane: /healthz, /statusz, /metrics served and valid"

# Robustness-recovery bench at smoke scale: tiny corpus, one repeat — the
# point here is memory safety across both half-grids (pipeline off/on for
# all five detectors) plus a schema-valid BENCH_deob.json, not the numbers.
# Its deob half is also the sanitizer run of shared training: the five
# detectors train on one deob-normalized AnalyzedCorpus (bench::run_grid),
# the JSRevealer extraction fan-out and the four serial baseline loops
# reading the same memoized analyses.
echo "== bench_deob smoke (ASan+UBSan)"
(cd "${BUILD_DIR}" && JSREV_BENCH_CORPUS=40 JSREV_BENCH_TRAIN=24 \
    JSREV_BENCH_REPEATS=1 ./bench/bench_deob)

# Table II at smoke scale: one trained detector, then SVM, LR, DT and GNB
# refitted on the rows its model featurizes, so the refit path
# (ModelView::featurize_rows, bench::refit_verdicts) runs under the
# sanitizers.
echo "== bench_table2_classifiers smoke (ASan+UBSan)"
(cd "${BUILD_DIR}" && JSREV_BENCH_CORPUS=40 JSREV_BENCH_TRAIN=24 \
    JSREV_BENCH_REPEATS=1 ./bench/bench_table2_classifiers)

# Repository benchmark self-test: perfbench/run.py builds its own copy of
# src/ and tools/jsr_serve (RelWithDebInfo, under .bench_build/, not this
# sanitizer tree) against the JsRevealer/ModelView API, then the selftest
# runs every workload at tiny size (metric names and units as BENCHMARK.json
# lists them, daemon verdicts identical to the library's, seeded input
# digests) and checks that an injected verdict mismatch fails the run.
if command -v python3 > /dev/null; then
  echo "== perfbench selftest"
  python3 perfbench/selftest.py
fi

echo "== artifact schema validation"
"${BUILD_DIR}/tools/jsr_stats" \
    --validate "${BUILD_DIR}/stats_metrics.json" \
    --validate "${BUILD_DIR}/stats_deterministic.json" \
    --validate "${BUILD_DIR}/stats_trace.json" \
    --validate "${BUILD_DIR}/BENCH_fuzz.json" \
    --validate "${BUILD_DIR}/BENCH_deob.json" \
    --validate "${BUILD_DIR}/stats_metrics.prom" \
    --validate "${BUILD_DIR}/admin_metrics.prom"

echo "== all checks passed"
