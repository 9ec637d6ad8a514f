#!/usr/bin/env bash
# Full verification: the tier-1 build + test suite, a warning-free build
# of every target with -DHPB_WERROR=ON, then an
# AddressSanitizer + UBSan build running the engine determinism /
# batching / pending-tracking tests (tests/test_engine.cpp), the
# failure-path + thread-pool tests (tests/test_failures.cpp), the
# session-durability + journal-fuzz tests (tests/test_journal.cpp), the
# observability tests (tests/test_obs.cpp), and the session / manager /
# async-token / wire-protocol tests (tests/test_session.cpp,
# tests/test_async.cpp, tests/test_wire.cpp), and the daemon
# survivability tests (tests/test_recovery.cpp: cold-start recovery,
# fault-injected disk errors, rid replay, overload shedding, drain), the
# resume tests (tests/test_resume.cpp: adopted journal replay, resumed
# trace bytes, the shared pool's column mirror), the durability tests
# (tests/test_durability.cpp: every acknowledged verb survives a journal
# cut to its last fsync, and the fsyncs each verb pays), and
# the space-layer property tests (tests/test_space_properties.cpp:
# streamed candidate generation over conditional/constrained spaces,
# pooled-vs-streamed bitwise parity, sentinel round trips, enumerate
# guards), the level-domain validity + streamed-generation tests
# (tests/test_level_rules.cpp: compiled rules vs satisfies() and vs the
# per-index reference loop, and the lazily compiled prefix filter), the
# SIMD dispatch-parity + streaming top-k tests (tests/test_simd.cpp), the
# sweep golden pins
# (tests/test_sweep_golden.cpp: suggestions, trace bytes, pool exhaustion),
# the session golden pins (tests/test_session_golden.cpp: journal and
# trace bytes of scripted managed sessions, journals of an earlier build),
# the warm-start constraint check and the streamed-generation, prefix-filter,
# streamed-sweep and space-property suites, re-run with HPB_SIMD forced to
# every tier this machine can execute; then a ThreadSanitizer build running the
# concurrency-sensitive
# subset (engine, thread pool, watchdog, shutdown, metrics hot path,
# session manager, line server, recovery/overload/drain, streamed-sweep
# and streamed-generation thread-count invariance, the prefix filter that
# parallel sweep workers compile on first use, concurrent first fits
# building one shared column mirror); then a fault-injected
# shootout smoke run (HPB_FAIL_RATE=0.2), a CLI crash-resume smoke
# (journal a run, truncate the journal mid-record, resume, and require
# the identical history CSV), a tuning-service storm smoke
# (bench/service_storm --smoke: interleaved sessions with forced
# eviction/resume over a real socket), a chaos smoke (--chaos: SIGKILL
# the daemon mid-storm, restart, require bitwise-identical resumed
# suggest sequences), and the gcov line-coverage gate for src/core +
# src/obs + src/space (tools/coverage.sh).
#
# Usage: tools/check.sh    (from anywhere; builds into build/,
#                           build-asan/, and build-tsan/ at the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

echo "== tier 1: build + full test suite =="
cmake -B build -S .
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo
echo "== warning-free build: every target with -DHPB_WERROR=ON =="
cmake -B build-werror -S . -DHPB_WERROR=ON
cmake --build build-werror -j "$jobs"

echo
echo "== ASan + UBSan: engine + failure-path + journal + observability + service tests =="
cmake -B build-asan -S . -DHPB_SANITIZE=address \
  -DHPB_BUILD_BENCH=OFF -DHPB_BUILD_EXAMPLES=OFF
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure -j "$jobs" \
  -R 'Engine|HiPerBOtPending|EnvParsing|Failure|ThreadPool|EvalStatus|HistoryCsv|FailEnv|Journal|Watchdog|Cancellation|GracefulShutdown|WallClock|AtomicHistory|DurabilityEnv|KillAndResume|Metrics|TraceSink|ObsEngine|RegressionQuality|Acquisition|SuggestPending|Session|Eviction|JsonParser|JsonNumbers|Wire|LineServer|Async|SyncCancel|CrossMode|Recovery|FaultInjection|RidReplay|Overload|Drain|Health|SpaceProperties|StreamedSweep|SentinelRoundTrip|EnumerateGuard|SimdDispatch|StreamingTopk|FixedDivisor|LevelRules|PrefixFilter|StreamedGeneration|SweepGolden|SweepExhaustion|WarmStartRejects|AdoptedReplay|ResumedTrace|SharedPoolColumns|AckedDurability|JournalSyncs'

echo
echo "== ASan, HPB_SIMD forced: dispatch parity under every runnable tier =="
# Every tier the build + CPU can run: scalar always; avx2 on x86-64 CPUs
# advertising it; avx512 on x86-64 CPUs advertising avx512f, avx512dq,
# avx512vl and avx512bw all four; neon on aarch64. The strict override
# makes a wrong guess here an error, so the probe mirrors
# src/common/simd_tier.cpp's detection.
has_cpu_flag() { grep -q "\b$1\b" /proc/cpuinfo 2>/dev/null; }
simd_tiers="off"
case "$(uname -m)" in
  x86_64)
    has_cpu_flag avx2 && simd_tiers="$simd_tiers avx2"
    has_cpu_flag avx512f && has_cpu_flag avx512dq && has_cpu_flag avx512vl \
      && has_cpu_flag avx512bw && simd_tiers="$simd_tiers avx512" ;;
  aarch64|arm64)
    simd_tiers="$simd_tiers neon" ;;
esac
for tier in $simd_tiers; do
  echo "-- HPB_SIMD=$tier --"
  HPB_SIMD="$tier" ctest --test-dir build-asan --output-on-failure -j "$jobs" \
    -R 'SimdDispatch|StreamingTopk|Acquisition|SuggestPending|SweepGolden|SweepExhaustion|WarmStartRejects|StreamedGeneration|PrefixFilter|StreamedSweep|SpaceProperties'
done

echo
echo "== TSan: engine / thread-pool / watchdog / shutdown / metrics / service tests =="
cmake -B build-tsan -S . -DHPB_SANITIZE=thread \
  -DHPB_BUILD_BENCH=OFF -DHPB_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j "$jobs"
ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
  -R 'Engine|ThreadPool|Watchdog|Cancellation|GracefulShutdown|WallClock|Failure|Metrics|JournalFuzz|RegressionQuality|Acquisition|SessionManager|LineServer|AsyncFuzz|AsyncEvictionResume|Recovery|FaultInjection|Overload|Drain|SpaceProperties|StreamedSweep|SimdDispatch|StreamingTopk|FixedDivisor|LevelRules|PrefixFilter|StreamedGeneration|SweepGolden|SweepExhaustion|WarmStartRejects|AdoptedReplay|ResumedTrace|SharedPoolColumns|AckedDurability|JournalSyncs|SessionGolden'

echo
echo "== TSan, HPB_SIMD forced: threaded sweeps under every runnable tier =="
for tier in $simd_tiers; do
  echo "-- HPB_SIMD=$tier --"
  HPB_SIMD="$tier" ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'SimdDispatch|StreamingTopk|SweepGolden|SweepExhaustion|WarmStartRejects|StreamedGeneration|PrefixFilter|StreamedSweep|SpaceProperties'
done

echo
echo "== acquisition sweep micro-bench smoke =="
./build/bench/micro_acquisition --smoke \
  --out build/BENCH_acquisition_smoke.json

echo
echo "== tuning-service storm smoke: interleaved sessions + eviction/resume =="
./build/bench/service_storm --smoke \
  --out build/BENCH_service_smoke.json

echo
echo "== chaos smoke (ASan): SIGKILL the daemon mid-storm, restart, bitwise resume =="
# The sanitized storm is the one worth running: the kill/restart cycle and
# the torn-connection teardown are exactly where lifetime bugs hide.
cmake -B build-asan -S . -DHPB_SANITIZE=address \
  -DHPB_BUILD_BENCH=ON -DHPB_BUILD_EXAMPLES=OFF > /dev/null
cmake --build build-asan -j "$jobs" --target service_storm
./build-asan/bench/service_storm --chaos --smoke \
  --out build-asan/BENCH_service_chaos_smoke.json

echo
echo "== fault-injected shootout smoke (HPB_FAIL_RATE=0.2) =="
HPB_FAIL_RATE=0.2 HPB_CRASH_RATE=0.05 HPB_REPS=1 HPB_BATCH=4 \
  ./build/bench/shootout

echo
echo "== CLI crash-resume smoke: journal, truncate, resume, compare =="
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
./build/tools/hiperbot tune --dataset kripke --method random --budget 40 \
  --batch 4 --fail-rate 0.2 --journal "$smoke_dir/full.hpbj" \
  --history-out "$smoke_dir/full.csv" > /dev/null
# Kill the session mid-record: keep a prefix that tears the journal inside
# a round, then resume it to completion.
head -c "$(($(stat -c %s "$smoke_dir/full.hpbj") * 2 / 3))" \
  "$smoke_dir/full.hpbj" > "$smoke_dir/cut.hpbj"
./build/tools/hiperbot tune --dataset kripke --resume "$smoke_dir/cut.hpbj" \
  --history-out "$smoke_dir/resumed.csv" > /dev/null
diff "$smoke_dir/full.csv" "$smoke_dir/resumed.csv" \
  || { echo "resumed history differs from uninterrupted run"; exit 1; }
cmp -s "$smoke_dir/full.hpbj" "$smoke_dir/cut.hpbj" \
  || { echo "healed journal differs from uninterrupted journal"; exit 1; }
echo "crash-resume smoke: identical history and journal"

echo
echo "== coverage gate: src/core + src/obs + src/space line coverage =="
tools/coverage.sh

echo
echo "check.sh: all green"
