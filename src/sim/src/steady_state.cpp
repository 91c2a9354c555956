#include "vpmem/sim/steady_state.hpp"

#include <chrono>
#include <map>

#include "vpmem/sim/memory_system.hpp"
#include "vpmem/sim/run.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::sim {

namespace {

struct Snapshot {
  i64 cycle = 0;
  std::vector<PortStats> ports;
};

Snapshot snapshot_of(const MemorySystem& mem) {
  return Snapshot{.cycle = mem.now(), .ports = mem.all_stats()};
}

PortStats delta(const PortStats& later, const PortStats& earlier) {
  PortStats d;
  d.grants = later.grants - earlier.grants;
  d.bank_conflicts = later.bank_conflicts - earlier.bank_conflicts;
  d.simultaneous_conflicts = later.simultaneous_conflicts - earlier.simultaneous_conflicts;
  d.section_conflicts = later.section_conflicts - earlier.section_conflicts;
  d.fault_conflicts = later.fault_conflicts - earlier.fault_conflicts;
  d.first_grant_cycle = earlier.last_grant_cycle;
  d.last_grant_cycle = later.last_grant_cycle;
  return d;
}

}  // namespace

SteadyState find_steady_state(const MemoryConfig& config,
                              const std::vector<StreamConfig>& streams, i64 max_cycles) {
  for (const auto& s : streams) {
    if (s.length != kInfiniteLength) {
      throw Error{ErrorCode::config_invalid, "find_steady_state: all streams must be infinite"};
    }
  }
  const auto wall_start = std::chrono::steady_clock::now();
  MemorySystem mem{config, streams};
  std::map<std::vector<i64>, Snapshot> seen;
  const Snapshot* first = nullptr;  // the earlier visit of the repeated state
  const auto revisited = [&](const MemorySystem& m) {
    const auto [it, inserted] = seen.try_emplace(m.state_key(), snapshot_of(m));
    if (!inserted) first = &it->second;
    return !inserted;
  };
  revisited(mem);
  drive(mem, Watchdog{.max_cycles = max_cycles, .livelock_factor = 0},
        {.until_finished = false}, revisited);
  if (first == nullptr) {
    throw Error{ErrorCode::deadline_exceeded,
                "find_steady_state: no cyclic state within max_cycles"};
  }

  const Snapshot now = snapshot_of(mem);
  SteadyState out;
  out.transient_cycles = first->cycle;
  out.period = now.cycle - first->cycle;
  out.grants_in_period.reserve(now.ports.size());
  i64 total_grants = 0;
  for (std::size_t i = 0; i < now.ports.size(); ++i) {
    const PortStats d = delta(now.ports[i], first->ports[i]);
    out.grants_in_period.push_back(d.grants);
    total_grants += d.grants;
    out.per_port.push_back(Rational{d.grants, out.period});
    out.conflicts_in_period.bank += d.bank_conflicts;
    out.conflicts_in_period.simultaneous += d.simultaneous_conflicts;
    out.conflicts_in_period.section += d.section_conflicts;
    out.conflicts_in_period.fault += d.fault_conflicts;
    out.per_port_delta.push_back(d);
  }
  out.bandwidth = Rational{total_grants, out.period};
  out.cycles_simulated = now.cycle;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return out;
}

OffsetSweep sweep_start_offsets(const MemoryConfig& config, i64 d1, i64 d2, bool same_cpu,
                                i64 max_cycles) {
  OffsetSweep sweep;
  sweep.by_offset.reserve(static_cast<std::size_t>(config.banks));
  for (i64 b2 = 0; b2 < config.banks; ++b2) {
    const SteadyState ss =
        find_steady_state(config, two_streams(0, d1, b2, d2, same_cpu), max_cycles);
    sweep.cycles_simulated += ss.cycles_simulated;
    sweep.wall_seconds += ss.wall_seconds;
    sweep.by_offset.push_back(ss.bandwidth);
    if (b2 == 0) {
      sweep.min_bandwidth = ss.bandwidth;
      sweep.max_bandwidth = ss.bandwidth;
    } else {
      sweep.min_bandwidth = std::min(sweep.min_bandwidth, ss.bandwidth);
      sweep.max_bandwidth = std::max(sweep.max_bandwidth, ss.bandwidth);
    }
  }
  return sweep;
}

}  // namespace vpmem::sim
