#include "vpmem/sim/run.hpp"

#include <algorithm>
#include <limits>

#include "vpmem/sim/memory_system.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::sim {

RunResult run_to_completion(const MemoryConfig& config, const std::vector<StreamConfig>& streams,
                            i64 max_cycles) {
  for (const auto& s : streams) {
    if (s.length == kInfiniteLength) {
      throw Error{ErrorCode::config_invalid, "run_to_completion: all streams must be finite"};
    }
  }
  MemorySystem mem{config, streams};
  GuardedRun run = drive(mem, Watchdog{.max_cycles = max_cycles, .livelock_factor = 0});
  if (!run.ok()) {
    throw Error{ErrorCode::deadline_exceeded,
                "run_to_completion: workload did not finish within max_cycles"};
  }
  return std::move(run.result);
}

double measure_bandwidth(const MemoryConfig& config, const std::vector<StreamConfig>& streams,
                         i64 warmup, i64 window) {
  if (warmup < 0 || window <= 0 || window > std::numeric_limits<i64>::max() - warmup) {
    throw Error{ErrorCode::config_invalid,
                "measure_bandwidth: warmup >= 0 and window > 0 required"};
  }
  MemorySystem mem{config, streams};
  const Watchdog unguarded{.max_cycles = warmup + window, .livelock_factor = 0};
  const i64 before =
      drive(mem, unguarded, {.horizon = warmup, .until_finished = false}).result.total_grants();
  const i64 after = drive(mem, unguarded, {.horizon = warmup + window, .until_finished = false})
                        .result.total_grants();
  return static_cast<double>(after - before) / static_cast<double>(window);
}

std::string to_string(RunStatus status) {
  switch (status) {
    case RunStatus::completed: return "completed";
    case RunStatus::deadline_exceeded: return "deadline_exceeded";
    case RunStatus::livelock: return "livelock";
    case RunStatus::interrupted: return "interrupted";
  }
  return "?";
}

GuardedRun drive(MemorySystem& mem, const Watchdog& watchdog, const StopRule& stop,
                 const StepHook& after_step) {
  // Invariants live in locals: step() and the hook are opaque calls, so
  // fields read through the references would be reloaded every cycle.
  const i64 horizon = stop.horizon;
  const bool until_finished = stop.until_finished;
  const bool hooked = static_cast<bool>(after_step);
  const std::atomic<bool>* const cancel = watchdog.cancel;
  // First cycle at which the horizon or the budget ends the loop.
  const i64 end = horizon < 0 ? watchdog.max_cycles : std::min(horizon, watchdog.max_cycles);
  const i64 window = watchdog.livelock_window(mem.config());
  const i64 begun = mem.now();
  i64 latest_start = 0;
  for (std::size_t i = 0; i < mem.port_count(); ++i) {
    latest_start = std::max(latest_start, mem.stream(i).start_cycle);
  }
  GuardedRun out;
  for (i64 now = begun; !(until_finished && mem.finished()); now = mem.now()) {
    if (now >= end) {
      if (horizon < 0 || now < horizon) {  // reaching the horizon is completion
        out.status = RunStatus::deadline_exceeded;
        out.detail = "cycle budget of " + std::to_string(watchdog.max_cycles) +
                     " exhausted before completion";
      }
      break;
    }
    if (cancel != nullptr && now % Watchdog::kCancelPollCycles == 0 &&
        cancel->load(std::memory_order_relaxed)) {
      out.status = RunStatus::interrupted;
      out.detail = "cancelled by caller at cycle " + std::to_string(now);
      break;
    }
    mem.step();
    if (!mem.last_step_grants().empty()) {
      out.last_grant_cycle = now;
    } else if (window > 0 && !mem.finished() &&
               now + 1 - std::max({out.last_grant_cycle, latest_start, begun}) > window) {
      out.status = RunStatus::livelock;
      out.detail = "no grant in the last " + std::to_string(window) +
                   " cycles (last grant at cycle " + std::to_string(out.last_grant_cycle) + ")";
      break;
    }
    if (hooked && after_step(mem)) break;
  }
  out.result.ports = mem.all_stats();
  out.result.conflicts = totals(out.result.ports);
  if (out.status == RunStatus::completed && horizon < 0) {
    for (const auto& p : out.result.ports) {
      out.result.cycles = std::max(out.result.cycles, p.last_grant_cycle + 1);
    }
  } else {
    out.result.cycles = mem.now() - begun;
  }
  return out;
}

}  // namespace vpmem::sim
