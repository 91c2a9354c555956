// Cross-validation sweeps: independent paths through the library must
// agree — exact steady states vs windowed measurement, recorded events vs
// aggregate counters, stall lengths vs the barrier theory.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "vpmem/vpmem.hpp"

namespace vpmem {
namespace {

sim::MemoryConfig flat(i64 m, i64 nc) {
  return sim::MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc};
}

TEST(CrossValidation, RecordedEventsAgreeWithAggregateCounters) {
  // Count every recorded event and compare with PortStats.
  for (auto [d1, d2] : {std::pair<i64, i64>{1, 6}, {2, 5}, {1, 1}}) {
    sim::MemorySystem mem{flat(13, 4), sim::two_streams(0, d1, 1, d2, /*same_cpu=*/true)};
    const sim::EventRecorder rec{mem, nullptr, mem.port_count() * 500};
    mem.run(500, /*stop_when_finished=*/false);
    std::map<std::size_t, sim::PortStats> counted;
    for (const sim::Event& e : rec.buffer().events()) {
      sim::PortStats& c = counted[e.port];
      if (e.type == sim::Event::Type::grant) {
        ++c.grants;
      } else if (e.conflict == sim::ConflictKind::bank) {
        ++c.bank_conflicts;
      } else if (e.conflict == sim::ConflictKind::simultaneous) {
        ++c.simultaneous_conflicts;
      } else {
        ++c.section_conflicts;
      }
    }
    for (std::size_t p = 0; p < mem.port_count(); ++p) {
      const sim::PortStats& st = mem.port_stats(p);
      EXPECT_EQ(counted[p].grants, st.grants) << "d=" << d1 << "," << d2;
      EXPECT_EQ(counted[p].bank_conflicts, st.bank_conflicts);
      EXPECT_EQ(counted[p].simultaneous_conflicts, st.simultaneous_conflicts);
      EXPECT_EQ(counted[p].section_conflicts, st.section_conflicts);
    }
  }
}

TEST(CrossValidation, WindowedMeasurementConvergesToExactSteadyState) {
  baseline::SplitMix64 rng{2024};
  for (int trial = 0; trial < 20; ++trial) {
    const i64 m = 8 + static_cast<i64>(rng.next_below(3)) * 4;  // 8, 12, 16
    const i64 nc = 2 + static_cast<i64>(rng.next_below(4));     // 2..5
    const i64 d1 = 1 + static_cast<i64>(rng.next_below(static_cast<std::uint64_t>(m - 1)));
    const i64 d2 = 1 + static_cast<i64>(rng.next_below(static_cast<std::uint64_t>(m - 1)));
    const i64 b2 = static_cast<i64>(rng.next_below(static_cast<std::uint64_t>(m)));
    const auto cfg = flat(m, nc);
    const auto streams = sim::two_streams(0, d1, b2, d2);
    const auto ss = sim::find_steady_state(cfg, streams);
    // Measure over an exact multiple of the detected period: must match
    // the rational value exactly.
    const i64 window = ss.period * 100;
    const double measured = sim::measure_bandwidth(cfg, streams, ss.transient_cycles, window);
    EXPECT_DOUBLE_EQ(measured, ss.bandwidth.to_double())
        << "m=" << m << " nc=" << nc << " d1=" << d1 << " d2=" << d2 << " b2=" << b2;
  }
}

TEST(CrossValidation, BarrierStallLengthMatchesEq29Derivation) {
  // In a barrier-situation the delayed stream's stall lasts (d2 - d1)/f
  // periods (the eq. 29 derivation).  Fig. 3: 5; Fig. 5: 2.
  {
    // b2 = 7 avoids the t=0 simultaneous collision (which would add one
    // startup delay period on top of the steady 5-period stall).
    sim::MemorySystem mem{flat(13, 6), sim::two_streams(0, 1, 7, 6)};
    mem.run(200, false);
    EXPECT_EQ(mem.port_stats(1).longest_stall, 5);
    EXPECT_EQ(mem.port_stats(0).longest_stall, 0);
  }
  {
    sim::MemorySystem mem{flat(13, 4), sim::two_streams(0, 1, 7, 3)};
    mem.run(200, false);
    EXPECT_EQ(mem.port_stats(1).longest_stall, 2);
    EXPECT_EQ(mem.port_stats(0).longest_stall, 0);
  }
}

TEST(CrossValidation, SelfConflictStallIsNcMinusR) {
  // A lone stream with r < nc stalls exactly nc - r periods per return.
  for (i64 d : {8, 4}) {
    sim::MemorySystem mem{flat(16, 7), {sim::StreamConfig{.distance = d}}};
    mem.run(300, false);
    const i64 r = analytic::return_number(16, d);
    EXPECT_EQ(mem.port_stats(0).longest_stall, 7 - r) << "d=" << d;
  }
}

TEST(CrossValidation, EventsCsvRoundTrip) {
  sim::MemorySystem mem{flat(8, 2), sim::two_streams(0, 1, 0, 1)};
  trace::Timeline tl{mem};
  mem.run(20, false);
  std::ostringstream os;
  tl.events_csv(os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("cycle,type,port,bank,element,conflict,blocker\n", 0), 0u);
  // One line per event plus header.
  const auto lines = static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, tl.events().size() + 1);
  EXPECT_NE(csv.find("simultaneous"), std::string::npos);
}

TEST(CrossValidation, AnalyzePairConsistentWithDiagnose) {
  // When the pair report says conflict-free for every offset, diagnose
  // must agree at each offset.
  const auto cfg = flat(12, 3);
  const core::PairReport pair = core::analyze_pair(cfg, 1, 7);
  ASSERT_EQ(pair.sweep.min_bandwidth, Rational{2});
  for (i64 b2 = 0; b2 < 12; ++b2) {
    const core::Diagnosis d = core::diagnose(cfg, sim::two_streams(0, 1, b2, 7));
    EXPECT_EQ(d.regime, core::RunRegime::conflict_free) << b2;
  }
}

}  // namespace
}  // namespace vpmem
