// The Section IV experiment (Fig. 10): the triad A(I) = B(I) + C(I)*D(I)
// executed for every stride INC in a range, with and without a competing
// CPU, reporting execution time and per-type conflict counts.
#pragma once

#include <vector>

#include "vpmem/obs/timer.hpp"
#include "vpmem/sim/event.hpp"
#include "vpmem/util/numeric.hpp"
#include "vpmem/util/table.hpp"
#include "vpmem/xmp/machine.hpp"

namespace vpmem::core {

/// One row of Fig. 10: everything measured for a single INC.
struct TriadRow {
  i64 inc = 0;
  i64 cycles_contended = 0;    ///< Fig. 10(a): other CPU streaming d = 1
  i64 cycles_dedicated = 0;    ///< Fig. 10(b): other CPU shut off
  sim::ConflictTotals conflicts_contended;  ///< Fig. 10(c/d/e)
  sim::ConflictTotals conflicts_dedicated;
  double background_goodput = 0.0;  ///< other CPU's grants/period while the
                                    ///< triad ran (barrier-former strides
                                    ///< depress it; see Section IV)

  /// Slowdown of the contended run relative to the dedicated one.
  [[nodiscard]] double interference_factor() const noexcept {
    return cycles_dedicated == 0 ? 0.0
                                 : static_cast<double>(cycles_contended) /
                                       static_cast<double>(cycles_dedicated);
  }
};

struct TriadExperiment {
  xmp::XmpConfig machine;
  xmp::TriadSetup setup;   ///< inc is overwritten per row
  i64 inc_min = 1;
  i64 inc_max = 16;
};

/// Run the full sweep (both contended and dedicated runs per INC) on
/// exec::parallel_for across `workers` threads (0 = one per hardware
/// thread).  Rows come back in INC order; if runs throw, the exception of
/// the lowest failing INC is rethrown on the caller.  When `telemetry` is non-null the
/// sweep records per-INC wall-clock latency and the simulated clock
/// periods of both runs into it (results are unaffected).
[[nodiscard]] std::vector<TriadRow> run_triad_experiment(
    const TriadExperiment& experiment, std::size_t workers = 0,
    obs::SweepTelemetry* telemetry = nullptr);

/// Render rows as the table the paper's five sub-figures plot.
[[nodiscard]] Table triad_table(const std::vector<TriadRow>& rows);

}  // namespace vpmem::core
