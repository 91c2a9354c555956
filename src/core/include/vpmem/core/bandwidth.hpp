// User-facing bandwidth analysis: the analytic prediction of Section III
// cross-checked against the exact cycle-level simulation, for one stream
// or a pair of streams.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "vpmem/analytic/classify.hpp"
#include "vpmem/sim/config.hpp"
#include "vpmem/sim/steady_state.hpp"
#include "vpmem/util/rational.hpp"

namespace vpmem::core {

/// Analysis of one constant-stride stream on an m-way memory.
struct SingleStreamReport {
  i64 m = 0;
  i64 nc = 0;
  i64 distance = 0;
  i64 return_number = 0;       ///< Theorem 1
  Rational predicted;          ///< Section III-A formula
  Rational simulated;          ///< exact steady-state of the simulator
  [[nodiscard]] bool consistent() const noexcept { return predicted == simulated; }
};

[[nodiscard]] SingleStreamReport analyze_single(const sim::MemoryConfig& config, i64 distance);

/// Analysis of a distance pair: theorem classification plus the simulated
/// bandwidth extremes over every relative start position.
struct PairReport {
  i64 m = 0;
  i64 nc = 0;
  i64 d1 = 0;
  i64 d2 = 0;
  analytic::PairPrediction prediction;
  /// The offset sweep that was run: steady-state b_eff at every start
  /// offset, its extremes, and the sweep's own cost telemetry.
  sim::OffsetSweep sweep;

  [[nodiscard]] std::string summary() const;
};

/// Sweep all m relative start positions (b1 = 0 fixed) and classify.
/// `same_cpu` selects the section-conflict regime (both ports on one CPU)
/// instead of the simultaneous-conflict regime.
[[nodiscard]] PairReport analyze_pair(const sim::MemoryConfig& config, i64 d1, i64 d2,
                                      bool same_cpu = false);

}  // namespace vpmem::core
