// Array-placement advice: the Section IV experiment chooses
// IDIM = 16*1024 + 1 so that consecutive COMMON arrays start one bank
// apart.  This module answers the general question — given the memory
// geometry, the loop stride and the number of arrays streamed together,
// which relative array spacing (IDIM mod m) maximizes steady-state
// bandwidth, and what is the smallest safe IDIM?
#pragma once

#include <vector>

#include "vpmem/sim/config.hpp"
#include "vpmem/util/rational.hpp"

namespace vpmem::core {

/// Bandwidth achieved by `arrays` equal-stride streams whose start banks
/// are spaced `spacing` apart (mod m).
struct SpacingChoice {
  i64 spacing = 0;  ///< IDIM mod m
  Rational bandwidth;
};

struct SpacingReport {
  std::vector<SpacingChoice> by_spacing;  ///< index == spacing in [0, m)
  i64 best_spacing = 0;   ///< smallest spacing achieving the maximum
  Rational best_bandwidth;
  i64 worst_spacing = 0;
  Rational worst_bandwidth;
};

/// Sweep every spacing residue.  `same_cpu` selects whether the streams
/// share one CPU's access paths (a single CPU reading several operands)
/// or run from distinct CPUs.
[[nodiscard]] SpacingReport sweep_array_spacing(const sim::MemoryConfig& config, i64 distance,
                                                i64 arrays, bool same_cpu = false);

/// Smallest array extent >= min_elements whose residue mod m equals
/// `report`'s best spacing: the IDIM of a sweep already in hand.
[[nodiscard]] i64 idim_for(const SpacingReport& report, i64 m, i64 min_elements);

/// idim_for(sweep_array_spacing(...), config.banks, min_elements).  For
/// the paper's setup (m = 16, stride 1, 4 arrays, >= 16384 elements) this
/// reproduces a one-bank-apart layout like IDIM = 16*1024 + 1.
[[nodiscard]] i64 recommend_idim(const sim::MemoryConfig& config, i64 distance, i64 arrays,
                                 i64 min_elements, bool same_cpu = false);

}  // namespace vpmem::core
