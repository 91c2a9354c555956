// Config/stream fuzzer: samples memory configurations and access-stream
// sets within the paper's valid ranges (SplitMix64-driven, fully
// deterministic per seed) and cross-checks three independent oracles per
// case — the cycle-accurate simulator, the naive reference model, and the
// analytic theorems.  Every failure carries a one-line repro that
// `vpmem_cli fuzz --replay` re-executes (see replay.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vpmem/baseline/rng.hpp"
#include "vpmem/check/invariants.hpp"
#include "vpmem/check/reference_model.hpp"
#include "vpmem/exec/pool.hpp"
#include "vpmem/sim/config.hpp"
#include "vpmem/util/json.hpp"

namespace vpmem::check {

/// One fuzzed scenario: a configuration, its streams, the differential
/// cycle budget, and the reference-model mutation to inject (none for
/// real cross-checking; a specific fault for harness-sensitivity tests).
struct FuzzCase {
  sim::MemoryConfig config;
  std::vector<sim::StreamConfig> streams;
  i64 cycles = 224;
  FaultKind fault = FaultKind::none;
  sim::FaultPlan plan;  ///< degrades *both* sides when non-empty
};

/// Outcome of checking a single case.
struct CaseFailure {
  std::string check;    ///< "differential" or an invariant name
  std::string message;
};

struct CaseResult {
  std::vector<CaseFailure> failures;
  i64 checks_run = 0;
  i64 events_compared = 0;
  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

/// Differential comparison plus (optionally) the analytic invariants.
[[nodiscard]] CaseResult check_case(const FuzzCase& fuzz_case,
                                    const InvariantOptions& invariants = {},
                                    bool run_invariants = true);

struct FuzzOptions {
  std::uint64_t seed = 0x0ed1a25;  ///< PRNG seed; the whole run is a pure
                                   ///< function of it
  i64 iterations = 500;
  i64 cycles = 224;                ///< differential cycle budget per case
  FaultKind fault = FaultKind::none;  ///< reference mutation (sensitivity runs)
  /// Attach a randomized sim::FaultPlan (timed bank/path degradation under
  /// either policy) to every sampled case.  The analytic invariants are
  /// skipped for such cases — the theorems assume a healthy machine — so
  /// the check is pure simulator-vs-reference differential.
  bool fault_plans = false;
  bool run_invariants = true;
  bool shrink_failures = true;
  std::size_t max_failures = 8;    ///< stop fuzzing after this many
  InvariantOptions invariants{};
  /// Worker threads checking cases.  Sharding is order-independent: the
  /// whole campaign is pre-sampled sequentially from `seed`, workers
  /// check disjoint cases, and results fold back in iteration order — a
  /// --jobs 8 run reports exactly the failures the sequential run finds.
  int jobs = 1;
  /// Cooperative cancellation (SIGINT): the loop stops at the next case
  /// boundary and FuzzSummary::interrupted is set.
  const exec::CancelToken* cancel = nullptr;
};

struct FuzzFailure {
  i64 iteration = 0;
  std::string check;
  std::string message;
  std::string repro;         ///< full failing case, one line
  std::string shrunk_repro;  ///< greedily minimized case (empty if not shrunk)
};

struct FuzzSummary {
  i64 iterations = 0;        ///< cases actually checked
  i64 checks_run = 0;        ///< differential + invariant checks executed
  i64 events_compared = 0;   ///< simulator/reference events compared
  std::uint64_t seed = 0;
  std::vector<FuzzFailure> failures;
  bool interrupted = false;  ///< stopped early on the caller's cancel token
  [[nodiscard]] bool ok() const noexcept { return failures.empty() && !interrupted; }
  /// Schema "vpmem.fuzz_summary/1"; embedded verbatim by the CLI.  "seed"
  /// is an integer up to 2^63 - 1 and a "0x..." hex string above, both
  /// forms `vpmem_cli fuzz --seed` accepts.
  [[nodiscard]] Json to_json() const;
};

/// Sample one scenario.  Half the cases take the canonical Section III-B
/// shape (two affine infinite streams, flat memory, fixed priority) so
/// the theorem oracles regularly fire; the rest roam the general space:
/// 1-4 ports over up to 3 CPUs, sections s | m, both mappings and
/// priority rules, affine (any-sign distances) and periodic-pattern
/// streams, finite lengths, delayed starts.
[[nodiscard]] FuzzCase sample_case(baseline::SplitMix64& rng, const FuzzOptions& options);

/// Run the full fuzz loop.
[[nodiscard]] FuzzSummary fuzz(const FuzzOptions& options);

}  // namespace vpmem::check
