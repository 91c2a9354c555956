// Exact steady-state (cyclic state) detection.
//
// Section III assumes infinitely long streams: "the possible memory states
// are finite, and some cyclic state will be reached.  Neglecting startup
// times, we compute the effective bandwidth for the cyclic state."  This
// module detects that cyclic state exactly and reports b_eff as an exact
// rational (grants per period over the detected cycle).
//
// Each clock period costs O(p + grants) and a fixed number of bytes,
// whatever m and n_c are: a 64-bit fingerprint of the sparse state (port
// phases, the priority rotation, the banks granted in the last n_c - 1
// steps) is logged and looked up in a table of first visits.  A
// fingerprint hit is only a candidate: a fresh machine is replayed to the
// earlier cycle and the two dense MemorySystem::state_key()s are
// compared, so the result is exact; a collision just continues the
// search.  The replay also yields the first visit's counters, so nothing
// per port is stored per cycle.  The replayed cycles count in
// SteadyState::cycles_simulated.
#pragma once

#include <vector>

#include "vpmem/sim/config.hpp"
#include "vpmem/sim/event.hpp"
#include "vpmem/util/rational.hpp"

namespace vpmem::sim {

/// Result of cycle detection over infinite streams.
struct SteadyState {
  Rational bandwidth;                  ///< b_eff: total grants per clock period
  std::vector<Rational> per_port;      ///< per-port share of b_eff
  i64 transient_cycles = 0;            ///< periods before the cyclic state is entered
  i64 period = 0;                      ///< length of the cyclic state
  /// Clock periods stepped during detection: transient + period by the
  /// search, plus the replay that confirms the repeat (usually transient).
  i64 cycles_simulated = 0;
  double wall_seconds = 0.0;           ///< wall-clock cost of the detection
  /// Simulator throughput of the detection run (simulated clock periods
  /// per wall-clock second); 0 when the run was too fast to time.
  [[nodiscard]] double cycles_per_second() const noexcept {
    return wall_seconds > 0.0 ? static_cast<double>(cycles_simulated) / wall_seconds : 0.0;
  }
  std::vector<i64> grants_in_period;   ///< per-port grants within one period
  ConflictTotals conflicts_in_period;  ///< conflicts within one period
  std::vector<PortStats> per_port_delta;  ///< per-port stats within one period

  /// True if `port` is never delayed inside the cycle.
  [[nodiscard]] bool port_conflict_free(std::size_t port) const {
    return per_port_delta.at(port).total_conflicts() == 0;
  }

  /// True if no port is ever delayed inside the cycle.
  [[nodiscard]] bool conflict_free() const noexcept { return conflicts_in_period.total() == 0; }
};

/// Detect the cyclic state for a set of *infinite* streams.  Throws
/// vpmem::Error{config_invalid} if any stream is finite and
/// vpmem::Error{deadline_exceeded} if no cycle is found within
/// `max_cycles` periods (cannot happen for valid configurations; the
/// bound is a defensive cap).
[[nodiscard]] SteadyState find_steady_state(const MemoryConfig& config,
                                            const std::vector<StreamConfig>& streams,
                                            i64 max_cycles = 1'000'000);

namespace detail {

/// The fingerprint find_steady_state() logs per cycle.  `collide_all`
/// gives every state the same one, so every cycle is a hit that only the
/// exact replay can settle: tests use it to show that a collision cannot
/// change a result.  Both are instantiated in the library.
enum class Fingerprint { exact, collide_all };

template <Fingerprint kKind>
[[nodiscard]] SteadyState find_steady_state(const MemoryConfig& config,
                                            const std::vector<StreamConfig>& streams,
                                            i64 max_cycles);

}  // namespace detail

/// Worst/best-case steady-state bandwidth of two streams over *all* pairs
/// of relative start banks (b1 fixed at 0, b2 swept over [0, m)).  Used to
/// validate "synchronization" (Theorem 3: any offset converges) and
/// "unique barrier" claims (Theorems 6/7: b_eff = 1 + d1/d2 regardless of
/// offsets).
struct OffsetSweep {
  Rational min_bandwidth;
  Rational max_bandwidth;
  std::vector<Rational> by_offset;  ///< index = b2
  // Perf telemetry of the sweep itself (summed over offsets); purely
  // observational — the bandwidths above are unaffected.
  i64 cycles_simulated = 0;   ///< clock periods stepped across all points
  double wall_seconds = 0.0;  ///< wall-clock cost of the whole sweep
  [[nodiscard]] double cycles_per_second() const noexcept {
    return wall_seconds > 0.0 ? static_cast<double>(cycles_simulated) / wall_seconds : 0.0;
  }
};

[[nodiscard]] OffsetSweep sweep_start_offsets(const MemoryConfig& config, i64 d1, i64 d2,
                                              bool same_cpu = false, i64 max_cycles = 1'000'000);

}  // namespace vpmem::sim
