// Differential test of the steady-state search: find_steady_state (a
// 64-bit fingerprint log whose hits are confirmed by replay) against a
// local copy of the dense-key search it replaced, which stored every
// cycle's MemorySystem::state_key() and counters in a std::map.  Both must
// report the same cyclic state on every drawn configuration, and a
// fingerprint under which every state collides must not change a result.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "vpmem/sim/memory_system.hpp"
#include "vpmem/sim/steady_state.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::sim {
namespace {

constexpr i64 kMaxCycles = 50000;

/// The retired search: one dense key and one counter snapshot per cycle.
/// nullopt when no state repeats within `max_cycles`.
std::optional<SteadyState> dense_key_search(const MemoryConfig& config,
                                            const std::vector<StreamConfig>& streams,
                                            i64 max_cycles) {
  MemorySystem mem{config, streams};
  std::map<std::vector<i64>, std::pair<i64, std::vector<PortStats>>> seen;
  seen.try_emplace(mem.state_key(), mem.now(), mem.all_stats());
  while (mem.now() < max_cycles) {
    mem.step();
    const auto [it, inserted] = seen.try_emplace(mem.state_key(), mem.now(), mem.all_stats());
    if (inserted) continue;
    const auto& [first_cycle, first] = it->second;
    const std::vector<PortStats> now = mem.all_stats();
    SteadyState out;
    out.transient_cycles = first_cycle;
    out.period = mem.now() - first_cycle;
    i64 total = 0;
    for (std::size_t i = 0; i < now.size(); ++i) {
      PortStats d;
      d.grants = now[i].grants - first[i].grants;
      d.bank_conflicts = now[i].bank_conflicts - first[i].bank_conflicts;
      d.simultaneous_conflicts = now[i].simultaneous_conflicts - first[i].simultaneous_conflicts;
      d.section_conflicts = now[i].section_conflicts - first[i].section_conflicts;
      d.fault_conflicts = now[i].fault_conflicts - first[i].fault_conflicts;
      d.first_grant_cycle = first[i].last_grant_cycle;
      d.last_grant_cycle = now[i].last_grant_cycle;
      out.grants_in_period.push_back(d.grants);
      total += d.grants;
      out.per_port.push_back(Rational{d.grants, out.period});
      out.conflicts_in_period.bank += d.bank_conflicts;
      out.conflicts_in_period.simultaneous += d.simultaneous_conflicts;
      out.conflicts_in_period.section += d.section_conflicts;
      out.conflicts_in_period.fault += d.fault_conflicts;
      out.per_port_delta.push_back(d);
    }
    out.bandwidth = Rational{total, out.period};
    return out;
  }
  return std::nullopt;
}

auto fields(const PortStats& s) {
  return std::tuple{s.grants,           s.bank_conflicts,   s.simultaneous_conflicts,
                    s.section_conflicts, s.fault_conflicts, s.first_grant_cycle,
                    s.last_grant_cycle,  s.longest_stall,   s.current_stall};
}

/// Every SteadyState field except the work and wall-clock telemetry.
void expect_same_cycle(const SteadyState& got, const SteadyState& want,
                       const std::string& label) {
  EXPECT_EQ(got.bandwidth, want.bandwidth) << label;
  EXPECT_EQ(got.per_port, want.per_port) << label;
  EXPECT_EQ(got.transient_cycles, want.transient_cycles) << label;
  EXPECT_EQ(got.period, want.period) << label;
  EXPECT_EQ(got.grants_in_period, want.grants_in_period) << label;
  const auto totals = [](const ConflictTotals& c) {
    return std::tuple{c.bank, c.simultaneous, c.section, c.fault};
  };
  EXPECT_EQ(totals(got.conflicts_in_period), totals(want.conflicts_in_period)) << label;
  ASSERT_EQ(got.per_port_delta.size(), want.per_port_delta.size()) << label;
  for (std::size_t i = 0; i < got.per_port_delta.size(); ++i) {
    EXPECT_EQ(fields(got.per_port_delta[i]), fields(want.per_port_delta[i]))
        << label << " port " << i;
  }
}

/// splitmix64: the same draws on every platform.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : state_{seed} {}
  /// Uniform-enough integer in [lo, hi].
  i64 operator()(i64 lo, i64 hi) {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return lo + static_cast<i64>(z % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

struct Case {
  MemoryConfig config;
  std::vector<StreamConfig> streams;
  std::string label;
};

/// m <= max_banks (half the draws at most 12, so n_c > m is common),
/// n_c <= 12, p <= 6, any section count dividing m, both mappings and
/// priorities, one CPU or several, affine and pattern streams, some with
/// a delayed start.
Case draw_case(Draw& draw, i64 max_banks) {
  Case c;
  const i64 m = draw(0, 1) == 0 ? draw(1, std::min<i64>(12, max_banks)) : draw(1, max_banks);
  std::vector<i64> divisors;
  for (i64 s = 1; s <= m; ++s) {
    if (m % s == 0) divisors.push_back(s);
  }
  c.config.banks = m;
  c.config.sections = divisors[static_cast<std::size_t>(
      draw(0, static_cast<i64>(divisors.size()) - 1))];
  c.config.bank_cycle = draw(1, 12);
  c.config.mapping = draw(0, 1) == 0 ? SectionMapping::cyclic : SectionMapping::consecutive;
  c.config.priority = draw(0, 1) == 0 ? PriorityRule::fixed : PriorityRule::cyclic;
  const i64 ports = draw(1, 6);
  const bool one_cpu = draw(0, 2) == 0;
  for (i64 p = 0; p < ports; ++p) {
    StreamConfig s;
    s.start_bank = draw(0, m - 1);
    s.distance = draw(-m, 2 * m);
    s.cpu = one_cpu ? 0 : draw(0, 2);
    if (draw(0, 3) == 0) s.start_cycle = draw(1, 24);
    if (draw(0, 4) == 0) {
      const i64 length = draw(1, 8);
      for (i64 k = 0; k < length; ++k) s.bank_pattern.push_back(draw(0, m - 1));
    }
    c.streams.push_back(std::move(s));
  }
  std::ostringstream label;
  label << "m=" << m << " s=" << c.config.sections << " nc=" << c.config.bank_cycle << " map="
        << to_string(c.config.mapping) << " pri=" << to_string(c.config.priority);
  for (const StreamConfig& s : c.streams) {
    label << " [b=" << s.start_bank << " d=" << s.distance << " cpu=" << s.cpu
          << " t0=" << s.start_cycle << " pat=" << s.bank_pattern.size() << ']';
  }
  c.label = label.str();
  return c;
}

TEST(SteadyStateSearch, MatchesTheDenseKeySearchOnDrawnConfigs) {
  Draw draw{0x57eadd5ea4c4ULL};
  int delayed = 0;
  int patterned = 0;
  int slow_banks = 0;  // n_c > m
  int unrepeated = 0;
  for (int n = 0; n < 2000; ++n) {
    const Case c = draw_case(draw, 64);
    const std::optional<SteadyState> want = dense_key_search(c.config, c.streams, kMaxCycles);
    if (!want) {  // no repeat within the budget: the search must say so too
      ++unrepeated;
      try {
        (void)find_steady_state(c.config, c.streams, kMaxCycles);
        ADD_FAILURE() << "found a cycle the dense search did not: " << c.label;
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::deadline_exceeded) << c.label;
      }
      continue;
    }
    const SteadyState got = find_steady_state(c.config, c.streams, kMaxCycles);
    expect_same_cycle(got, *want, c.label);
    // The search steps transient + period cycles; confirming the hit
    // replays a fresh machine to the first visit, transient more.
    EXPECT_EQ(got.cycles_simulated, 2 * got.transient_cycles + got.period) << c.label;
    for (const StreamConfig& s : c.streams) {
      delayed += s.start_cycle > 0 ? 1 : 0;
      patterned += s.has_pattern() ? 1 : 0;
    }
    slow_banks += c.config.bank_cycle > c.config.banks ? 1 : 0;
  }
  // The draws reach the shapes the fingerprint reads differently.
  EXPECT_GT(delayed, 100);
  EXPECT_GT(patterned, 100);
  EXPECT_GT(slow_banks, 100);
  EXPECT_LT(unrepeated, 20);
  std::cout << "configs without a repeat within " << kMaxCycles << " cycles: " << unrepeated
            << '\n';
}

TEST(SteadyStateSearch, EveryStateCollidingChangesNoResult) {
  // Every cycle is a fingerprint hit against cycle 0's entry; the replay
  // walks every earlier cycle with that fingerprint (all of them), so a
  // hit at cycle t that finds no equal state replays t - 1 cycles, and the
  // confirming one replays the transient.
  Draw draw{0xc0111de5ULL};
  for (int n = 0; n < 60; ++n) {
    const Case c = draw_case(draw, 16);
    const SteadyState want = find_steady_state(c.config, c.streams, kMaxCycles);
    const SteadyState got = detail::find_steady_state<detail::Fingerprint::collide_all>(
        c.config, c.streams, kMaxCycles);
    expect_same_cycle(got, want, c.label);
    const i64 cycles = got.transient_cycles + got.period;
    const i64 replayed = (cycles - 1) * (cycles - 2) / 2 + got.transient_cycles;
    EXPECT_EQ(got.cycles_simulated, cycles + replayed) << c.label;
  }
}

TEST(SteadyStateSearch, BudgetCoversTheRepeatCycleAndNoMore) {
  // m = 8, d = 4, n_c = 5: the state first repeats at cycle
  // transient + period; a budget of exactly that finds it, one less
  // does not.
  const MemoryConfig config{.banks = 8, .sections = 8, .bank_cycle = 5};
  const std::vector<StreamConfig> streams{StreamConfig{.distance = 4}};
  const SteadyState ss = find_steady_state(config, streams);
  const i64 repeat = ss.transient_cycles + ss.period;
  EXPECT_EQ(find_steady_state(config, streams, repeat).period, ss.period);
  // A budget past 32-bit cycle indices (64-bit table slots) finds the
  // same cycle.
  expect_same_cycle(find_steady_state(config, streams, i64{1} << 40), ss, "2^40 budget");
  try {
    (void)find_steady_state(config, streams, repeat - 1);
    FAIL() << "a budget below the repeat cycle found a cycle";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::deadline_exceeded);
  }
}

}  // namespace
}  // namespace vpmem::sim
