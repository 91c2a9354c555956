// The four benchmark workloads.  Each owns a fixed item set (sweep
// points, reports, kernel runs or fuzz cases); the seed fixes the order
// the items run in, so every seed does the same work and every output can
// be checked against one golden digest.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"
#include "vpmem/util/numeric.hpp"

namespace vpbench {

using vpmem::i64;

enum class Size {
  full,  ///< the benchmark proper
  tiny,  ///< a few items per workload, for the self-test
};

/// Digest of one group of simulated outputs, compared with the golden file.
struct Digest {
  std::string name;
  std::string hex;
  i64 items = 0;  ///< items whose outputs the digest covers
};

/// Outcome of one pass over a workload's item set.
struct PassResult {
  double wall_seconds = 0.0;
  std::vector<double> item_ms;  ///< host latency of each item, by canonical index
  i64 items = 0;
  i64 failed = 0;               ///< non-ok job, typed error or disagreement
  i64 sim_cycles = 0;           ///< modelled clock periods, from public results
  std::vector<Digest> digests;
  /// Deterministic work counters: identical on every pass of the same code.
  std::map<std::string, i64> counters;
  /// Traced passes only: host seconds and work per layer, keyed by name.
  std::map<std::string, double> layer;
  std::vector<std::string> errors;

  void fail(i64 count, std::string message) {
    failed += count;
    errors.push_back(std::move(message));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs for `seed`: configs, job lists, fuzz cases, journal
  /// paths.  Idempotent; timed as setup_s.
  virtual void setup(std::uint64_t seed) = 0;
  /// Run every item once.  With `spans` enabled the pass also replays each
  /// item's config through the lower layers to fill PassResult::layer.
  virtual PassResult run_pass(SpanRecorder& spans) = 0;
  /// Items one pass runs (after setup).
  [[nodiscard]] virtual i64 items_per_pass() const = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.  Journals and other
/// scratch files go under `work_dir`.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name, Size size,
                                                      const std::string& work_dir);

}  // namespace vpbench
