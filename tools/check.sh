#!/usr/bin/env sh
# One-stop verification: build + tier-1 tests + chaos soaks + metrics suite.
#
#   tools/check.sh             # RelWithDebInfo build, all suites
#   tools/check.sh --sanitize  # same suites under ASan+UBSan (FBS_SANITIZE=ON)
#   tools/check.sh --bench-smoke  # Release build, run the crypto + fig8 +
#                                 # parallel benches' self-timed passes and
#                                 # diff their gauges against the
#                                 # BENCH_seed.json baseline (regressions
#                                 # exit non-zero)
#   tools/check.sh --fuzz-smoke   # ASan+UBSan build, replay the regression
#                                 # corpus and run every deterministic fuzz
#                                 # driver with a raised iteration budget
#   tools/check.sh --tsan-smoke   # ThreadSanitizer build, run the
#                                 # multi-threaded stress suite (ctest -L
#                                 # tsan) against the sharded engine and
#                                 # the receive pipeline
#   tools/check.sh --mesh-smoke   # ASan+UBSan build, run the transit-mesh
#                                 # suites (ctest -L mesh): router/queue
#                                 # unit tests plus the routed-topology
#                                 # survival scenarios (congestion, rekey
#                                 # failover, rebinding, 30-node soaks)
#   tools/check.sh --udp-smoke    # build the real-socket backend, run the
#                                 # cross-process loopback interop (ctest -L
#                                 # udp: two OS processes, FBS handshake +
#                                 # protected datagrams + replay injection
#                                 # over 127.0.0.1, pcaps decoded by
#                                 # tools/fbs_dissect.py), then the
#                                 # fig8_udp_loopback bench (gauges to
#                                 # metrics JSON; not baseline-gated)
#   tools/check.sh --megaflow-smoke  # ASan+UBSan build, run the million-flow
#                                 # control-plane suites (ctest -L megaflow:
#                                 # flat map, timer wheel, megaflow policy,
#                                 # internet trace), then the megaflow bench
#                                 # at 64k flows with its steady-state /
#                                 # expiry / memory-ceiling gates asserted
#   tools/check.sh --crypto-smoke # ASan+UBSan build, run the crypto suites
#                                 # (ctest -L crypto: DES/MD5 kernels against
#                                 # their reference oracles, fused seal/open,
#                                 # bitslice batches), then a Release
#                                 # bench_crypto pass with the bitsliced-DES
#                                 # speedup gate (>= 3x the scalar core)
#   FBS_CHECK_JOBS=8 tools/check.sh   # override parallelism (default: nproc)
#
# Exit status is non-zero as soon as any step fails.
set -eu

cd "$(dirname "$0")/.."

BUILD_DIR=build
CONFIG_ARGS="-DCMAKE_BUILD_TYPE=RelWithDebInfo"
if [ "${1:-}" = "--sanitize" ]; then
  BUILD_DIR=build-sanitize
  CONFIG_ARGS="$CONFIG_ARGS -DFBS_SANITIZE=ON"
fi

JOBS="${FBS_CHECK_JOBS:-$(nproc 2>/dev/null || echo 2)}"

if [ "${1:-}" = "--bench-smoke" ]; then
  # Benches must be measured at full optimization; this matches the
  # "release" CMake preset. The google-benchmark loops are skipped (filter
  # matches nothing) -- the machine-readable gauges come from each bench's
  # self-timed emit_metrics pass, which is the part the baseline pins.
  BUILD_DIR=build-release
  echo "== configure ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  echo "== build benches =="
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target fbs_bench_crypto fbs_bench_fig8_throughput \
             fbs_bench_parallel_throughput
  OUT_DIR="$BUILD_DIR/bench-smoke"
  mkdir -p "$OUT_DIR"
  echo "== bench_crypto =="
  FBS_METRICS_OUT="$OUT_DIR/fbs_bench_crypto.json" \
    "$BUILD_DIR/bench/fbs_bench_crypto" --benchmark_filter='$^'
  echo "== bench_fig8_throughput =="
  FBS_METRICS_OUT="$OUT_DIR/fbs_bench_fig8_throughput.json" \
    "$BUILD_DIR/bench/fbs_bench_fig8_throughput" --benchmark_filter='$^'
  echo "== bench_parallel_throughput =="
  FBS_METRICS_OUT="$OUT_DIR/fbs_bench_parallel_throughput.json" \
    "$BUILD_DIR/bench/fbs_bench_parallel_throughput"
  echo "== combine snapshots =="
  python3 - "$OUT_DIR" <<'EOF'
import json, sys, os
out_dir = sys.argv[1]
combined = {}
for name in ("fbs_bench_crypto", "fbs_bench_fig8_throughput",
             "fbs_bench_parallel_throughput"):
    with open(os.path.join(out_dir, name + ".json")) as f:
        combined[name] = json.load(f)
with open(os.path.join(out_dir, "current.json"), "w") as f:
    json.dump(combined, f, indent=1)
EOF
  echo "== compare against BENCH_seed.json =="
  # Besides the relative diff, assert the absolute acceptance gates: crit
  # speedup @4 workers and the hardware-aware wall gate (wall speedup @8
  # normalized by what this host's core count makes achievable; see
  # bench_parallel_throughput.cpp), plus the bitsliced DES gate -- the
  # 64-datagram mixed-key CBC decrypt burst must hold >= 3x the scalar
  # core's throughput, measured adjacently in-process by bench_crypto
  # (min over interleaved wall/CPU-clock reps; see emit_metrics there).
  python3 tools/bench_compare.py BENCH_seed.json "$OUT_DIR/current.json" --all \
    --require "fbs_bench_parallel_throughput:parallel.speedup4=3.0" \
    --require "fbs_bench_parallel_throughput:parallel.wall_gate=1.0" \
    --require "fbs_bench_crypto:crypto.des_bitslice_speedup=3.0"
  echo "Bench smoke passed."
  exit 0
fi

if [ "${1:-}" = "--crypto-smoke" ]; then
  # Crypto kernel gate: the scalar DES/MD5 kernels are hand-scheduled
  # straight-line code, so run their bit-exactness suites under ASan+UBSan,
  # then measure in a Release tree. The bitslice gate divides the wide
  # engine's throughput by the scalar core's, so a faster scalar core must
  # still leave the wide engine >= 3x ahead. The relative diff against
  # BENCH_seed.json is informational here; --bench-smoke gates it.
  echo "== configure (build-sanitize) =="
  cmake -B build-sanitize -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFBS_SANITIZE=ON
  echo "== build crypto suites =="
  cmake --build build-sanitize -j "$JOBS" --target test_crypto
  echo "== crypto suites (ctest -L crypto) =="
  ctest --test-dir build-sanitize -L crypto -j "$JOBS" --output-on-failure
  echo "== configure (build-release) =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  echo "== build bench_crypto =="
  cmake --build build-release -j "$JOBS" --target fbs_bench_crypto
  OUT_DIR=build-release/crypto-smoke
  mkdir -p "$OUT_DIR"
  echo "== bench_crypto (self-timed gauges) =="
  FBS_METRICS_OUT="$OUT_DIR/fbs_bench_crypto.json" \
    build-release/bench/fbs_bench_crypto --benchmark_filter='$^'
  python3 - "$OUT_DIR" <<'EOF'
import json, sys, os
out_dir = sys.argv[1]
with open(os.path.join(out_dir, "fbs_bench_crypto.json")) as f:
    snap = json.load(f)
with open(os.path.join(out_dir, "current.json"), "w") as f:
    json.dump({"fbs_bench_crypto": snap}, f, indent=1)
EOF
  echo "== compare against BENCH_seed.json (gate: bitslice speedup) =="
  python3 tools/bench_compare.py BENCH_seed.json "$OUT_DIR/current.json" \
    --no-fail --require "fbs_bench_crypto:crypto.des_bitslice_speedup=3.0"
  echo "Crypto smoke passed."
  exit 0
fi

if [ "${1:-}" = "--tsan-smoke" ]; then
  # Data-race detection for the shard-per-core datagram path, including the
  # batched ring transfers (push_wait_batch/pop_batch producers), the
  # grouped submit_batch ingress and the stop-vs-submit shutdown races.
  # FBS_TSAN is mutually exclusive with FBS_SANITIZE, so this runs in its
  # own tree.
  BUILD_DIR=build-tsan
  echo "== configure ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFBS_TSAN=ON
  echo "== build concurrency stress =="
  cmake --build "$BUILD_DIR" -j "$JOBS" --target test_concurrency
  echo "== tsan stress suite =="
  ctest --test-dir "$BUILD_DIR" -L tsan -j "$JOBS" --output-on-failure
  echo "TSan smoke passed."
  exit 0
fi

if [ "${1:-}" = "--mesh-smoke" ]; then
  # Transit-mesh robustness gate (see DESIGN.md section 5g): the queue
  # discipline + router unit tests plus the routed-topology survival
  # scenarios, under ASan+UBSan so queue-wipe and crash-restart paths get
  # lifetime checking too.
  BUILD_DIR=build-sanitize
  echo "== configure ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFBS_SANITIZE=ON
  echo "== build mesh suites =="
  cmake --build "$BUILD_DIR" -j "$JOBS" --target test_net test_mesh_scenarios
  echo "== mesh suites (ctest -L mesh) =="
  ctest --test-dir "$BUILD_DIR" -L mesh -j "$JOBS" --output-on-failure
  echo "Mesh smoke passed."
  exit 0
fi

if [ "${1:-}" = "--megaflow-smoke" ]; then
  # Million-flow control plane gate (DESIGN.md 5i): the budgeted flat-hash +
  # timer-wheel suites under ASan+UBSan, then the megaflow bench scaled down
  # to 64k flows -- still enough to exercise budget eviction, the flash
  # crowd and the DDoS window -- with its hard gates (zero steady-state heap
  # growth, O(expired) sweeps, per-shard memory ceiling) asserted in-process.
  BUILD_DIR=build-sanitize
  echo "== configure ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFBS_SANITIZE=ON
  echo "== build megaflow suites + bench =="
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target test_megaflow_structures test_megaflow_policy \
             test_internet_trace fbs_bench_megaflow
  echo "== megaflow suites (ctest -L megaflow) =="
  ctest --test-dir "$BUILD_DIR" -L megaflow -j "$JOBS" --output-on-failure
  echo "== megaflow bench @ 64k flows (gates asserted) =="
  FBS_MEGAFLOW_FLOWS=65536 FBS_MEGAFLOW_ASSERT=1 \
    "$BUILD_DIR/bench/fbs_bench_megaflow"
  echo "Megaflow smoke passed."
  exit 0
fi

if [ "${1:-}" = "--udp-smoke" ]; then
  # Real-socket gate: the UdpTransport backend driven end to end. The
  # interop test forks the example pair, completes an FBS handshake and
  # MAC-verified protected traffic between two OS processes over loopback,
  # injects replays, and round-trips both pcap captures through the
  # dissector. The bench then measures the same workload in-process;
  # loopback throughput is host-kernel dependent, so its gauges are
  # recorded, not compared against BENCH_seed.json.
  echo "== configure ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . $CONFIG_ARGS
  echo "== build udp backend + interop harness =="
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target test_net udp_loopback_responder udp_loopback_initiator \
             test_udp_interop fbs_bench_fig8_udp_loopback
  echo "== udp transport unit tests =="
  "$BUILD_DIR/tests/test_net" \
    --gtest_filter='UdpTransport*:Pcap*:TransportTotals*:TransportMetrics*'
  "$BUILD_DIR/tests/test_util" --gtest_filter='SteadyClock*'
  echo "== cross-process loopback interop (ctest -L udp) =="
  ctest --test-dir "$BUILD_DIR" -L udp -j "$JOBS" --output-on-failure
  echo "== fig8_udp_loopback bench =="
  FBS_METRICS_OUT="$BUILD_DIR/fig8_udp_loopback.metrics.json" \
    "$BUILD_DIR/bench/fbs_bench_fig8_udp_loopback"
  echo "UDP smoke passed."
  exit 0
fi

if [ "${1:-}" = "--fuzz-smoke" ]; then
  # The deterministic drivers are the stock-toolchain stand-in for libFuzzer
  # (see DESIGN.md section 5e): replay the checked-in corpus, then mutate
  # from the structure-aware seeds under the sanitizers, with a budget well
  # above the tier-1 default so the smoke actually explores.
  BUILD_DIR=build-sanitize
  echo "== configure ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFBS_SANITIZE=ON
  echo "== build fuzz harness =="
  cmake --build "$BUILD_DIR" -j "$JOBS" --target test_fuzz_harness
  echo "== fuzz drivers (FBS_FUZZ_ITERS=${FBS_FUZZ_ITERS:-20000}) =="
  FBS_FUZZ_ITERS="${FBS_FUZZ_ITERS:-20000}" \
    ctest --test-dir "$BUILD_DIR" -L fuzz -j "$JOBS" --output-on-failure
  echo "Fuzz smoke passed."
  exit 0
fi

echo "== configure ($BUILD_DIR) =="
cmake -B "$BUILD_DIR" -S . $CONFIG_ARGS

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== tier-1 tests (everything except the chaos soaks) =="
ctest --test-dir "$BUILD_DIR" -LE chaos -j "$JOBS" --output-on-failure

echo "== chaos soak suite =="
ctest --test-dir "$BUILD_DIR" -L chaos -j "$JOBS" --output-on-failure

echo "== metrics / observability suite =="
ctest --test-dir "$BUILD_DIR" -L metrics -j "$JOBS" --output-on-failure

echo "All checks passed."
