// Run drivers: execute streams to completion (vector instructions of
// length n) or measure long-run average bandwidth over a window, all on
// one step loop, drive(), whose watchdog returns partial results instead
// of hanging (degraded-mode workloads can run forever, e.g. a stream
// pinned on an offline bank under FaultPolicy::stall).
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "vpmem/sim/config.hpp"
#include "vpmem/sim/event.hpp"
#include "vpmem/sim/fault.hpp"
#include "vpmem/util/numeric.hpp"

namespace vpmem::sim {

class MemorySystem;

/// Outcome of running a finite workload to completion.
struct RunResult {
  i64 cycles = 0;  ///< clock periods until the last element was granted
  std::vector<PortStats> ports;
  ConflictTotals conflicts;

  [[nodiscard]] i64 total_grants() const noexcept {
    i64 g = 0;
    for (const auto& p : ports) g += p.grants;
    return g;
  }
  /// Average data per clock period over the whole run (includes startup).
  [[nodiscard]] double bandwidth() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(total_grants()) / static_cast<double>(cycles);
  }
};

/// Simulate until every finite stream has transferred all its elements.
/// Throws vpmem::Error{config_invalid} if any stream is infinite and
/// vpmem::Error{deadline_exceeded} if completion takes more than
/// `max_cycles` periods.
[[nodiscard]] RunResult run_to_completion(const MemoryConfig& config,
                                          const std::vector<StreamConfig>& streams,
                                          i64 max_cycles = 100'000'000);

/// Long-run average bandwidth of infinite streams measured over
/// [warmup, warmup + window).  A floating-point cross-check for
/// find_steady_state(); agrees with it as window -> infinity.  Throws
/// vpmem::Error{config_invalid} on warmup < 0 or window <= 0.
[[nodiscard]] double measure_bandwidth(const MemoryConfig& config,
                                       const std::vector<StreamConfig>& streams, i64 warmup,
                                       i64 window);

/// How a driven run ended.
enum class RunStatus {
  completed,          ///< workload finished (or the requested window closed)
  deadline_exceeded,  ///< the cycle budget ran out first
  livelock,           ///< no grant for the livelock window while requests pend
  interrupted,        ///< the caller's cancel flag tripped (SIGINT, campaign
                      ///< shutdown); counters cover the cycles observed so far
};

[[nodiscard]] std::string to_string(RunStatus status);

/// Budget limits for drive().
struct Watchdog {
  /// Hard cycle budget: the run stops (status deadline_exceeded) once
  /// now() reaches this cycle without finishing.
  i64 max_cycles = 100'000'000;
  /// Livelock window factor k: the run stops (status livelock) when no
  /// port was granted for more than k * nc * m consecutive periods while
  /// at least one started, unfinished stream is requesting.  That window
  /// is the documented detection bound — any healthy arbitration grants
  /// within nc * m periods of a request, so k adds slack for fault
  /// recovery without masking true livelock.  <= 0 disables detection.
  i64 livelock_factor = 4;
  /// Optional cooperative cancellation: when non-null, drive() polls
  /// this flag (every kCancelPollCycles periods) and stop with status
  /// RunStatus::interrupted once it is set.  Wired to the process-wide
  /// SIGINT/SIGTERM token by long-running CLI subcommands and to the
  /// campaign executor's shutdown path, so a guarded run is re-entrant
  /// *and* abandonable without killing its thread.
  const std::atomic<bool>* cancel = nullptr;

  /// How often (in simulated periods) the cancel flag is polled.
  static constexpr i64 kCancelPollCycles = 512;

  [[nodiscard]] bool cancelled() const noexcept {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }

  /// The livelock window in clock periods for `config`.
  [[nodiscard]] i64 livelock_window(const MemoryConfig& config) const noexcept {
    return livelock_factor <= 0 ? 0 : livelock_factor * config.bank_cycle * config.banks;
  }
};

/// Outcome of drive(): always a usable (possibly partial) result —
/// expiry is reported in `status`, never thrown.
struct GuardedRun {
  RunStatus status = RunStatus::completed;
  RunResult result;          ///< counters up to the cycle the run stopped
  i64 last_grant_cycle = -1; ///< most recent grant; -1 if none at all
  std::string detail;        ///< human-readable stop reason (empty if completed)

  [[nodiscard]] bool ok() const noexcept { return status == RunStatus::completed; }
};

/// When drive() stops besides the watchdog and the caller's predicate.
struct StopRule {
  /// Stop once now() reaches this absolute cycle; < 0 = no horizon.
  i64 horizon = -1;
  /// Stop once every finite stream has finished (MemorySystem::finished).
  bool until_finished = true;
};

/// Caller predicate checked after every step; returning true stops the
/// run with status completed.  The X-MP drivers issue their next vector
/// instructions in it, the steady-state search looks up the state key.
using StepHook = std::function<bool(const MemorySystem&)>;

/// The one step loop behind every run entry point.  Steps `mem` until the
/// first of:
///   - `stop.until_finished` and the workload finished    -> completed
///   - `stop.horizon` reached                             -> completed
///   - now() >= watchdog.max_cycles (absolute cycles)     -> deadline_exceeded
///   - the cancel flag, polled every kCancelPollCycles    -> interrupted
///   - no grant for the livelock window while requests pend (measured
///     from the latest of last grant, latest stream start and the cycle
///     the drive began; livelock_factor <= 0 turns it off) -> livelock
///   - `after_step` returned true                         -> completed
/// Grant detection reads the engine's record of the last step, so the
/// loop costs O(1) on top of step().  Observers already attached to `mem`
/// keep firing.  Never throws: the stop reason is the status, and the
/// counters up to the stop are returned.  `result.cycles` is the cycle
/// after the last grant for a run that completed without a horizon, and
/// the cycles driven otherwise.
GuardedRun drive(MemorySystem& mem, const Watchdog& watchdog, const StopRule& stop = {},
                 const StepHook& after_step = {});

}  // namespace vpmem::sim
