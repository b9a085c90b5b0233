#!/usr/bin/env bash
# CI gate (ROADMAP "CI sanitizer pass" item):
#
#   1. tier-1: default build, `ctest -L tier1` — the fast suite that must
#      stay green on every commit;
#   2. sanitizers: a separate ASan/UBSan build running the FULL test
#      suite, including the `long`-labelled scenario soak;
#   3. loopback integration, sanitized: the real-TCP tests (EventLoop,
#      TcpTransport, the 7-node tampered LoopbackCluster scenarios, the
#      simulator/TCP parity check, Follower Selection over TCP, the
#      sharded ShardCluster and the load driver's run_loopback — every
#      harness on the one LoopbackMesh, whose crash/restart and teardown
#      order this gate checks) re-run as an explicitly named gate — socket
#      and reconnect paths must be clean under ASan/UBSan, not just under
#      virtual time — plus the long-labelled XPaxos leader crash after
#      15,000 slots over TCP (the view change must complete with zero
#      acked-op loss);
#   4. fuzz smoke: randomized fault schedules per protocol through
#      tools/qsel_fuzz on the sanitized binary, so memory bugs on fuzz
#      paths surface here and not in the nightly campaign. The generator's
#      archetype mix includes the combined schedules (adversary walk x
#      partition, partition x crashes) and the qs crash-then-restart
#      archetype, so a 100-run smoke exercises ~20 of them per protocol;
#   5. kill/restart soak, sanitized: a 5-node f=1 authenticated loopback
#      cluster with per-node WAL stores, killed and restarted for
#      SOAK_CYCLES (default 6, >= 5) cycles. Gates on the agreement
#      oracle after every cycle and on epoch non-regression across every
#      recovery — the durability contract under ASan/UBSan, where a
#      use-after-free in the teardown/rebuild path would actually abort;
#   6. benchmark regression gate: tools/bench_report --quick against the
#      committed BENCH_5.json (the `bench` ctest label). Gate metrics are
#      deterministic ratios (delta/full gossip bytes, incremental/scratch
#      recompute), so the 25% margin is meaningful on any host.
#   7. sharded loopback soak, sanitized: the 2-shard / 3-group cluster
#      (4 node processes, 2 routing clients) under client load on both
#      shards, with one live whole-shard migration and one whole-node
#      kill/restart mid-migration. Gates on zero acknowledged-op loss
#      through routing clients after the dust settles. Long-labelled, so
#      tier-1 runs skip it; QSEL_SHARD_SOAK_OPS scales the load.
#   8. campaign smoke, sanitized: a small coverage-guided campaign
#      (tools/qsel_campaign) seeded from the pinned corpus/, running
#      every candidate across all four protocols (qs/fs/bchain/pbft).
#      Gates on replaying every pinned reproducer green, finding at
#      least one coverage signature beyond the seed corpus, and zero
#      oracle violations — the campaign_smoke ctest (long label);
#   9. end-to-end SMR throughput gate: tools/bench_report --bench6
#      --quick against the committed BENCH_6.json. The gated metrics are
#      deterministic sim-substrate ratios (serial/pipelined committed
#      ops, batched/unbatched PREPAREs, histogram-report determinism), so
#      the 25% margin is meaningful on any host. BENCH_6 has no timed
#      arms: wall-clock loopback figures come from perfbench (tcp_serial,
#      tcp_window) as medians.
#
#  10. large-n scaling gate: tools/bench_report --bench7 against the
#      committed BENCH_7.json — suspicion-plane bytes/round at n in
#      {64, 128, 256} (delta/full and 256-vs-64 sub-quadratic growth
#      ratios), capped-fanout convergence depth at n = 256, and the
#      sparse matrix resident-bytes ratio. All deterministic, same 25%
#      margin. The companion n = 96 fuzz soak (fuzz_n96_soak) is
#      long-labelled and runs inside stage 2's sanitized full suite.
#  11. bounded-state gate: tools/bench_report --bench8 against the
#      committed BENCH_8.json — a leader crash at a short and an 8x longer
#      uptime; mean VIEWCHANGE bytes and retained log slots per live
#      replica may not grow with uptime (long/short <= 1.25, absolute and
#      within 25% of the baseline). Deterministic, ~1 s of CPU.
#  12. Release: a -DCMAKE_BUILD_TYPE=Release build (-O3, -Werror and every
#      warning still on) and its tier-1 suite — perf work measures the
#      optimized build, so it must build and pass too.
#  13. hash-budget gate: tools/bench_report --bench9 against the committed
#      BENCH_9.json — one sim run in perfbench's sim_leader_crash shape
#      (n = 4, 8 clients x 16 outstanding, leader crashed at 500 ms, 2 s
#      virtual, seed 1); SHA-256 compressions, HMACs, messages and bytes
#      per committed op, and the crash's outage as the slowest op in
#      virtual ms (gate_bench9_max_latency_ms). Deterministic, same 25%
#      margin; ~1 s of CPU (a few more on a CPU without the SHA
#      extensions).
#
# Environment knobs: FUZZ_RUNS (default 100), FUZZ_SEED (default 1 —
# nightly jobs should pass a varying seed, e.g. the date), SOAK_CYCLES,
# SHARD_SOAK_OPS.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
cd "$ROOT"

echo "== [1/13] tier-1 build + tests =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
(cd build && ctest -L tier1 --output-on-failure -j"$JOBS")

echo "== [2/13] ASan/UBSan full suite =="
cmake -B build-asan -S . -DQSEL_SANITIZE=ON >/dev/null
cmake --build build-asan -j"$JOBS"
(cd build-asan && ctest --output-on-failure -j"$JOBS")

echo "== [3/13] loopback integration (real TCP, sanitized) =="
(cd build-asan && ctest -L tier1 -R "EventLoopTest|TcpTransportTest|LoopbackClusterTest|LoopbackResilienceTest|FollowerLoopbackTest|WireTest|ShardClusterTest|LoadLoopbackTest" \
  --output-on-failure)
(cd build-asan && ctest -R "XpaxosLoopbackCrashTest" --output-on-failure)

echo "== [4/13] fuzz smoke (${FUZZ_RUNS:-100} runs/protocol, sanitized, combined archetypes included) =="
./build-asan/tools/qsel_fuzz --runs "${FUZZ_RUNS:-100}" --seed "${FUZZ_SEED:-1}"

echo "== [5/13] kill/restart durability soak (${SOAK_CYCLES:-6} cycles, 5-node f=1, sanitized) =="
(cd build-asan && QSEL_SOAK_CYCLES="${SOAK_CYCLES:-6}" \
  ctest -R "RestartSoakTest" --output-on-failure)

echo "== [6/13] benchmark regression gate (bench_report --quick vs committed BENCH_5.json) =="
(cd build && ctest -R '^bench_report_quick$' --output-on-failure)

echo "== [7/13] sharded loopback soak (migration + node kill/restart under load, sanitized) =="
(cd build-asan && QSEL_SHARD_SOAK_OPS="${SHARD_SOAK_OPS:-30}" \
  ctest -R "ShardSoakTest" --output-on-failure)

echo "== [8/13] campaign smoke (guided, 4-protocol bake-off, seed corpus replay, sanitized) =="
(cd build-asan && ctest -R "campaign_smoke" --output-on-failure)

echo "== [9/13] end-to-end SMR gate (bench_report --bench6 --quick vs committed BENCH_6.json) =="
(cd build && ctest -R '^bench6_report_quick$' --output-on-failure)

echo "== [10/13] large-n scaling gate (bench_report --bench7 vs committed BENCH_7.json) =="
(cd build && ctest -R '^bench7_report_quick$' --output-on-failure)

echo "== [11/13] bounded-state gate (bench_report --bench8 vs committed BENCH_8.json) =="
(cd build && ctest -R '^bench8_report_quick$' --output-on-failure)

echo "== [12/13] Release build + tier-1 tests =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j"$JOBS"
(cd build-release && ctest -L tier1 --output-on-failure -j"$JOBS")

echo "== [13/13] hash-budget gate (bench_report --bench9 vs committed BENCH_9.json) =="
(cd build && ctest -R '^bench9_report_quick$' --output-on-failure)

echo "CI gate passed."
