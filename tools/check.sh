#!/usr/bin/env bash
# Builds and tests the repo in the normal configuration, then again with
# AddressSanitizer + UndefinedBehaviorSanitizer, then with
# ThreadSanitizer (separate build trees; TSan cannot combine with ASan).
#
# Usage: tools/check.sh [--no-sanitize]

set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE=1
if [[ "${1:-}" == "--no-sanitize" ]]; then
  SANITIZE=0
fi

echo "== normal build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j)

echo "== runtime-seam lint =="
# No layer above src/sim/ may reach for the simulator's clock or event
# queue directly; everything goes through the Runtime interface
# (src/runtime/runtime.h), so the same code runs on the wall-clock
# backend.  The grep must come up empty.
if grep -rnE 'sim_->(Now|Schedule)|sim\(\)->(Now|Schedule)' src \
    --include='*.h' --include='*.cc' \
  | grep -v '^src/sim/' | grep -v '^src/runtime/'; then
  echo "runtime-seam lint: raw simulator scheduling outside src/sim/" >&2
  exit 1
fi
echo "runtime-seam lint: clean"

echo "== certification / apply-lane microbench =="
# Self-checking: exits non-zero if the indexed certifier is not at least
# 5x faster than the linear-scan oracle at a 4096-entry conflict window.
./build/bench/micro_components --bench-json=build/BENCH_certifier.json

echo "== refresh fan-out microbench =="
# Self-checking: exits non-zero unless batching strictly reduces the
# certifier->replica message and byte counts while delivering the same
# writesets.
./build/bench/micro_components --net-json=build/BENCH_network.json

echo "== hot-path A/B microbench =="
# Self-checking: exits non-zero unless the best optimized hot path
# (cached plans / zero-copy fan-out / arena-fed WAL) holds a >= 2x
# speedup over its pre-optimization behavior AND the memoized
# serializations are byte-identical to the fresh encoders.
./build/bench/micro_components --hotpath-json=build/BENCH_hotpath.json

echo "== partitioned certification sweep =="
# Self-checking: exits non-zero unless 4-lane certified throughput is at
# least 2.5x the one-lane certifier on a shard-disjoint workload
# AND the K=4 partial-replication end-to-end run is audit-clean.
./build/bench/micro_components --shard-sweep=build/BENCH_shards.json

echo "== saturation sweep (flow control on) =="
# Self-checking: exits non-zero unless the admission queue and the
# per-replica apply backlog stay within their configured bounds, the
# top-load runs actually shed, and p99 stays bounded past the knee.
./build/bench/saturation --quick --bench-json=build/BENCH_saturation.json

echo "== saturation sweep with critical-path profiling =="
# Self-checking twice over: the profiler verifies at runtime that each
# committed attempt's segments sum to its measured response time, and the
# virtual-time results must match the unprofiled sweep exactly (the
# profiler consumes spans, not randomness).
./build/bench/saturation --quick --profile \
  --bench-json=build/BENCH_profile.json \
  --profile-json=build/PROFILE_saturation.json

echo "== health-monitor fault sweep =="
# Self-checking: exits non-zero unless every injected fault (crash,
# partition, overload burst, refresh loss, catch-up stall, credit
# squeeze, certifier saturation) trips its matching detector within the
# scenario's sample bound AND the clean default-config figure runs stay
# detector-quiet.
./build/bench/fault_timeline --health-sweep \
  --bench-json build/BENCH_health.json

echo "== timeline dashboard render =="
# Render one fault timeline end-to-end (sampler + health + fault
# markers) to prove the JSON bundle and the stdlib-only renderer agree.
./build/bench/fault_timeline --health \
  --timeline-json build/timeline_crash.json >/dev/null
python3 tools/render_timeline.py build/timeline_crash.json \
  -o build/timeline_crash.html --title "fault_timeline: crash + recover"

echo "== wall-clock closed-loop bench (ThreadRuntime) =="
# The middleware on the wall-clock backend under a real closed-loop
# multi-threaded load, audited online and by post-hoc event-log replay.
# Exits non-zero on zero commits or any consistency violation.
./build/bench/realtime --clients 8 --duration 2 \
  --bench-json build/BENCH_realtime.json

echo "== TCP server smoke (screp_server + screp_cli) =="
# Boot the audited TCP front-end, drive it with the bundled client's
# closed loop, then SHUTDOWN; the server exits non-zero if its auditor
# saw any violation.
SMOKE_PORT=17411
./build/tools/screp_server --port "$SMOKE_PORT" --audit &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  if ./build/tools/screp_cli --port "$SMOKE_PORT" --ping 2>/dev/null; then
    break
  fi
  sleep 0.1
done
./build/tools/screp_cli --port "$SMOKE_PORT" --clients 4 --ops 50
# Protocol-abuse regression: oversized request line, mid-line
# disconnect with an open transaction; server must reject, clean up,
# and keep serving.
./build/tools/screp_cli --port "$SMOKE_PORT" --abuse
# Footprint guard: the server's peak RSS after the closed loop.  Measured
# ~9.7 MB (4-vCPU x86-64 VM, RelWithDebInfo); eagerly allocated span and
# event rings add ~24 MB, which this bound catches in seconds.
SERVER_HWM_KB=$(awk '/^VmHWM:/ {print $2}' "/proc/$SERVER_PID/status")
echo "screp_server VmHWM: ${SERVER_HWM_KB} kB (bound 24576 kB)"
if (( SERVER_HWM_KB > 24576 )); then
  echo "screp_server peak RSS ${SERVER_HWM_KB} kB exceeds 24 MB" >&2
  exit 1
fi
./build/tools/screp_cli --port "$SMOKE_PORT" --shutdown
wait "$SERVER_PID"
trap - EXIT
echo "server smoke: ok"

echo "== perfbench smoke (wall clock) =="
# perfbench builds outside the tier-1 tree (perfbench/CMakeLists.txt) and
# reads the middleware's metric names (certifier.certified,
# certifier.forces, refresh.rN, ...) in its output checks, so a src/
# refactor can break it unnoticed.  One traced run per workload: run.py
# exits non-zero on a failed build, a failed output check or an audit
# violation.  30 s (BENCHMARK.json's run length, ~100 s in all) gives
# every p99 the 1000 samples perfbench's percentile check requires, with
# ~40% to spare; a 2 s traced run fails that check on every commit.
for workload in kv_tcp tpcw_shopping kv_eager_writes; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 30 \
    --trace 1 >/dev/null
  echo "perfbench $workload: ok"
done

echo "== perfbench peak RSS flat over run length =="
# Memory must stay bounded however long a run lasts: kv_eager_writes'
# peak_rss_mb at 10 s and at 60 s (timed runs) may differ by at most 10%.
# A store that grows with the run (an append-only log, say) fails here.
python3 tools/rss_flatness.py --workload kv_eager_writes --short 10 \
  --long 60 --tolerance 0.10

echo "== bench regression gate =="
# Compares the fresh BENCH_*.json against the committed baselines with
# per-metric tolerance bands; --self-test proves the gate still catches
# planted regressions (e.g. a 20% p99 slowdown).
python3 tools/bench_gate.py --self-test
python3 tools/bench_gate.py --baseline BENCH_certifier.json \
  --fresh build/BENCH_certifier.json
python3 tools/bench_gate.py --baseline BENCH_network.json \
  --fresh build/BENCH_network.json
python3 tools/bench_gate.py --baseline BENCH_hotpath.json \
  --fresh build/BENCH_hotpath.json
python3 tools/bench_gate.py --baseline BENCH_shards.json \
  --fresh build/BENCH_shards.json
python3 tools/bench_gate.py --baseline BENCH_saturation.json \
  --fresh build/BENCH_saturation.json
python3 tools/bench_gate.py --baseline BENCH_profile.json \
  --fresh build/BENCH_profile.json
python3 tools/bench_gate.py --baseline BENCH_health.json \
  --fresh build/BENCH_health.json
# Wall-clock numbers vary with the host, so the realtime gate checks
# floors only (progress + audit verdicts), never latency ceilings.
python3 tools/bench_gate.py --realtime build/BENCH_realtime.json

if [[ "$SANITIZE" == "1" ]]; then
  echo "== sanitized build (address,undefined) =="
  cmake -B build-asan -S . -DSCREP_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "$(nproc)"
  (cd build-asan && ctest --output-on-failure -j)

  echo "== network-fault stage (address,undefined) =="
  # Loss / reorder / partition-heal on the refresh stream under ASan:
  # the reliable channel's retransmission and resequencing paths.
  ./build-asan/tests/net_channel_test
  ./build-asan/tests/net_fault_integration_test

  echo "== overload stage (address,undefined) =="
  # Admission shedding, certifier intake backpressure, refresh credits,
  # and timeout/backoff retry paths under ASan: the shed/timeout paths
  # synthesize responses outside the normal proxy flow, so exercise
  # their ownership story explicitly.
  ./build-asan/tests/overload_integration_test

  echo "== memory-bound stage (address,undefined) =="
  # The sweep frees writesets refresh batches and apply queues may share.
  ./build-asan/tests/memory_bound_test

  echo "== sanitized build (thread) =="
  cmake -B build-tsan -S . -DSCREP_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$(nproc)"
  (cd build-tsan && ctest --output-on-failure -j)

  echo "== network-fault stage (thread) =="
  ./build-tsan/tests/net_channel_test
  ./build-tsan/tests/net_fault_integration_test

  echo "== runtime stage (thread) =="
  # The genuinely multi-threaded paths: the Runtime conformance suite on
  # both backends and the full middleware over ThreadRuntime (Spawn
  # workers, Post ingress, completion-slot handoff, Stop drain) must be
  # race-free under TSan (including the low-water-mark sweep).
  ./build-tsan/tests/runtime_conformance_test
  ./build-tsan/tests/thread_runtime_e2e_test
  ./build-tsan/tests/memory_bound_test
fi

echo "== all checks passed =="
