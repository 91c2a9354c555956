#include "vpmem/core/layout.hpp"

#include <stdexcept>

#include "vpmem/core/group.hpp"

namespace vpmem::core {

SpacingReport sweep_array_spacing(const sim::MemoryConfig& config, i64 distance, i64 arrays,
                                  bool same_cpu) {
  config.validate();
  if (arrays < 1) throw std::invalid_argument{"sweep_array_spacing: arrays must be >= 1"};
  SpacingReport report;
  report.by_spacing.reserve(static_cast<std::size_t>(config.banks));
  for (i64 spacing = 0; spacing < config.banks; ++spacing) {
    const GroupReport group = analyze_group(
        config, uniform_streams(arrays, distance, spacing, config.banks, same_cpu));
    report.by_spacing.push_back(SpacingChoice{spacing, group.bandwidth});
    if (spacing == 0 || group.bandwidth > report.best_bandwidth) {
      report.best_spacing = spacing;
      report.best_bandwidth = group.bandwidth;
    }
    if (spacing == 0 || group.bandwidth < report.worst_bandwidth) {
      report.worst_spacing = spacing;
      report.worst_bandwidth = group.bandwidth;
    }
  }
  return report;
}

i64 idim_for(const SpacingReport& report, i64 m, i64 min_elements) {
  if (min_elements < 1) throw std::invalid_argument{"idim_for: min_elements must be >= 1"};
  // Smallest idim >= min_elements with idim mod m == best_spacing.
  const i64 rem = mod_norm(min_elements, m);
  return min_elements + mod_norm(report.best_spacing - rem, m);
}

i64 recommend_idim(const sim::MemoryConfig& config, i64 distance, i64 arrays, i64 min_elements,
                   bool same_cpu) {
  if (min_elements < 1) throw std::invalid_argument{"recommend_idim: min_elements must be >= 1"};
  return idim_for(sweep_array_spacing(config, distance, arrays, same_cpu), config.banks,
                  min_elements);
}

}  // namespace vpmem::core
