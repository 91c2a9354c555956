#!/usr/bin/env bash
# Tier-1 verification plus a sanitizer pass over the simulator tests.
#
#   tools/check.sh          # full check: plain build + ctest, then
#                           # ASan/UBSan, then TSan
#   tools/check.sh --fast   # plain build + ctest only
#   tools/check.sh --fuzz   # full check, then an extended differential
#                           # fuzz run (vpmem_cli fuzz, 20k cases) and a
#                           # fault-plan differential leg (5k cases)
#
# The sanitizer pass rebuilds into build-asan/ with -fsanitize=address,undefined
# (VPMEM_SANITIZE=ON) and reruns the sim + obs + check test binaries, which
# exercise the event recorders and their chunk sinks, the attribution fold's
# hot path and the reference model's event-log scans, plus the run corpus
# and the X-MP kernel grid, which take every run entry point through
# sim::drive, and the vpmem_cli golden and argv-fuzz suites, which run the
# sanitized CLI binary on every subcommand and on 2000 drawn command lines.
#
# The TSan pass rebuilds into build-tsan/ with -fsanitize=thread
# (VPMEM_SANITIZE_THREAD=ON) and runs `ctest -LE fork`: everything except
# the two fork-labelled suites (the sandbox plumbing and the CLI campaign
# end-to-end tests — TSan's interceptors do not survive fork()).  The
# executor, worker pool, journal writer, sharded fuzzer, and metrics
# merging all get their race coverage here via the in-process suites.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
mode="${1:-}"

echo "== lint: one observer path =="
# Recorders with chunk sinks are the only way to observe a run; the removed
# std::function hook multiplexer and the Collector must not come back.
if grep -rnE "add_event_hook|remove_event_hook|EventHook|obs::Collector" \
    src examples tests bench; then
  echo "lint: the removed event-hook API or obs::Collector is referenced above" >&2
  exit 1
fi

echo "== tier 1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== bench telemetry: perf_sim_engine -> BENCH_perf_sim_engine.json =="
# Run from the repo root so the vpmem.bench/1 document lands there (a local
# artifact: .gitignore drops BENCH_*.json, so no copy is committed); the
# gate below fails on an empty benchmarks array (the regression this guards
# against: a reporter change silently dropping rows).
./build/bench/perf_sim_engine >/dev/null
python3 - <<'EOF'
import json, sys
doc = json.load(open("BENCH_perf_sim_engine.json"))
if doc.get("schema") != "vpmem.bench/1":
    sys.exit(f"BENCH_perf_sim_engine.json: bad schema {doc.get('schema')!r}")
rows = doc.get("benchmarks", [])
if len(rows) < 3:
    sys.exit(f"BENCH_perf_sim_engine.json: only {len(rows)} benchmark entries (need >= 3)")
for row in rows:
    if not row.get("name") or "real_time" not in row:
        sys.exit(f"BENCH_perf_sim_engine.json: malformed entry {row!r}")
names = {row["name"].split("/")[0] for row in rows}
if "bm_step_traced" not in names:
    sys.exit("BENCH_perf_sim_engine.json: tracer-overhead rows (bm_step_traced) missing")
print(f"BENCH_perf_sim_engine.json: {len(rows)} entries ok")
EOF

if [[ "$mode" == "--fast" ]]; then
  echo "== done (fast mode: sanitizer pass skipped) =="
  exit 0
fi

echo "== sanitizer pass: ASan + UBSan on sim/obs/check tests =="
cmake -B build-asan -S . -DVPMEM_SANITIZE=ON >/dev/null
cmake --build build-asan -j "$jobs" --target \
  sim_config_test sim_memory_system_test sim_steady_state_test sim_run_test \
  sim_pattern_test sim_event_buffer_test sim_fault_test sim_checkpoint_test \
  obs_metrics_test obs_collector_test \
  obs_report_test obs_timer_test obs_attribution_test obs_tracer_test \
  check_reference_model_test check_differential_fuzz_test check_replay_test \
  check_fault_plan_fuzz_test check_live_ports_test obs_run_corpus_test \
  xmp_kernel_grid_test vpmem_cli exec_cli_golden_test exec_cli_argv_fuzz_test
ctest --test-dir build-asan --output-on-failure -j "$jobs" -R \
  '^(sim_|obs_|check_reference_model|check_differential_fuzz|check_replay|check_fault_plan_fuzz|check_live_ports|xmp_kernel_grid|exec_cli_golden|exec_cli_argv_fuzz)'

echo "== sanitizer pass: TSan on everything but the fork-labelled suites =="
cmake -B build-tsan -S . -DVPMEM_SANITIZE_THREAD=ON >/dev/null
cmake --build build-tsan -j "$jobs"
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" -LE fork

if [[ "$mode" == "--fuzz" ]]; then
  echo "== extended differential fuzz: 20k cases =="
  # A different seed than the ctest runs, so this pass explores new
  # configurations on every harness change; still deterministic.
  ./build/examples/vpmem_cli fuzz 20000 --seed 0x20250807
  echo "== fault-plan differential fuzz: 5k cases =="
  # Random timed fault plans (both degradation policies, all six event
  # kinds): simulator and reference model must agree event-for-event.
  ./build/examples/vpmem_cli fuzz 5000 --fault-plans --seed 0x20260807
fi

echo "== all checks passed =="
