// Configuration types for the cycle-level interleaved-memory simulator.
//
// The machine model follows Section II of Oed & Lange (1985):
//   * m banks, addresses cyclically interleaved: bank j = i mod m.
//   * Bank cycle time of nc clock periods: a bank servicing a request is
//     "active" and rejects further requests for nc periods.
//   * s | m sections; one access path per (CPU, section); a granted request
//     occupies its path for one clock period.
//   * p ports, each able to issue one request per clock period; an
//     unsatisfied request is delayed one period along with all subsequent
//     requests of that port (dynamic conflict resolution).
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "vpmem/util/numeric.hpp"

namespace vpmem::sim {

/// How banks are distributed over sections.
enum class SectionMapping {
  /// k = j mod s — the paper's default cyclic distribution.
  cyclic,
  /// m/s consecutive banks per section: k = j / (m/s).  Proposed by
  /// Cheung & Smith (paper's [8], Fig. 9) to prevent linked conflicts.
  consecutive,
};

/// Arbitration rule when several ports could proceed but share a resource.
enum class PriorityRule {
  /// Lower port index always wins (the paper's "fixed priority rule").
  fixed,
  /// Rotating priority: the highest-priority position advances by one port
  /// every clock period ("cyclic priority rule", resolves linked conflicts
  /// per Fig. 8(b)).
  cyclic,
};

[[nodiscard]] std::string to_string(SectionMapping mapping);
[[nodiscard]] std::string to_string(PriorityRule rule);

/// Static description of the memory system.
struct MemoryConfig {
  i64 banks = 16;        ///< m, number of interleaved banks (m >= 1)
  i64 sections = 16;     ///< s, number of sections; s | m; s == m means
                         ///< paths are never a bottleneck (Section III-B)
  i64 bank_cycle = 4;    ///< nc, bank busy time in clock periods (nc >= 1)
  SectionMapping mapping = SectionMapping::cyclic;
  PriorityRule priority = PriorityRule::fixed;

  /// Throws std::invalid_argument on an inconsistent configuration.
  void validate() const;

  /// Section k of bank j under the configured mapping.
  [[nodiscard]] i64 section_of(i64 bank) const;
};

/// Sentinel: stream issues requests forever (used for steady-state
/// analysis, assumption 1 of Section III).
inline constexpr i64 kInfiniteLength = std::numeric_limits<i64>::max();

/// One access stream driven by one port.
///
/// The common case is a constant-stride stream (a single vector
/// load/store instruction): the (k+1)-th request goes to bank
/// (start_bank + k*distance) mod m.  Alternatively a *periodic bank
/// pattern* may be supplied (skewed storage schemes, diagonal accesses,
/// synthetic random traffic): request k then targets
/// bank_pattern[k mod bank_pattern.size()] and start_bank/distance are
/// ignored.
struct StreamConfig {
  i64 start_bank = 0;   ///< b_i in [0, m)
  i64 distance = 1;     ///< d_i, any sign (taken mod m for bank addressing)
  i64 cpu = 0;          ///< CPU this port belongs to (selects path group)
  i64 length = kInfiniteLength;  ///< number of elements to transfer
  i64 start_cycle = 0;  ///< clock period of the first request
  std::vector<i64> bank_pattern = {};  ///< when non-empty: explicit periodic
                                       ///< bank sequence (each in [0, m))

  [[nodiscard]] bool has_pattern() const noexcept { return !bank_pattern.empty(); }

  /// Bank targeted by request k.  The affine address start + k*d is
  /// reduced mod `banks` term by term, so any k >= 0 is defined.
  [[nodiscard]] i64 bank_of(i64 k, i64 banks) const {
    if (has_pattern()) {
      return bank_pattern[static_cast<std::size_t>(k % static_cast<i64>(bank_pattern.size()))];
    }
    return add_mod(mod_norm(start_bank, banks), mul_mod(k, distance, banks), banks);
  }

  /// Throws std::invalid_argument if inconsistent with `cfg`.
  void validate(const MemoryConfig& cfg) const;
};

/// Convenience builder for the common "two infinite streams" experiments
/// of Section III; both streams on distinct CPUs when `same_cpu` is false
/// (simultaneous-conflict regime) or on one CPU when true (section-conflict
/// regime).
[[nodiscard]] std::vector<StreamConfig> two_streams(i64 b1, i64 d1, i64 b2, i64 d2,
                                                    bool same_cpu = false);

}  // namespace vpmem::sim
