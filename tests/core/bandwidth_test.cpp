#include "vpmem/core/bandwidth.hpp"

#include <gtest/gtest.h>

namespace vpmem::core {
namespace {

sim::MemoryConfig flat(i64 m, i64 nc) {
  return sim::MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc};
}

TEST(AnalyzeSingle, PredictionMatchesSimulationAcrossDistances) {
  const auto cfg = flat(16, 4);
  for (i64 d = 0; d < 16; ++d) {
    const SingleStreamReport r = analyze_single(cfg, d);
    EXPECT_TRUE(r.consistent()) << "d=" << d << ": " << r.predicted.str() << " vs "
                                << r.simulated.str();
    EXPECT_EQ(r.m, 16);
    EXPECT_EQ(r.nc, 4);
  }
}

TEST(AnalyzeSingle, ReportsReturnNumber) {
  const SingleStreamReport r = analyze_single(flat(16, 4), 6);
  EXPECT_EQ(r.return_number, 8);
  EXPECT_EQ(r.predicted, Rational{1});
}

TEST(AnalyzePair, ConflictFreePair) {
  const PairReport r = analyze_pair(flat(12, 3), 1, 7);
  EXPECT_EQ(r.prediction.cls, analytic::PairClass::conflict_free_synchronized);
  EXPECT_EQ(r.sweep.min_bandwidth, Rational{2});
  EXPECT_EQ(r.sweep.max_bandwidth, Rational{2});
  EXPECT_EQ(r.sweep.by_offset.size(), 12u);
}

TEST(AnalyzePair, StartDependentPairShowsSpread) {
  const PairReport r = analyze_pair(flat(13, 6), 1, 6);
  EXPECT_EQ(r.prediction.cls, analytic::PairClass::start_dependent);
  EXPECT_LT(r.sweep.min_bandwidth, r.sweep.max_bandwidth);
}

TEST(AnalyzePair, SummaryMentionsClassAndRange) {
  const PairReport r = analyze_pair(flat(12, 3), 1, 7);
  const std::string s = r.summary();
  EXPECT_NE(s.find("conflict-free"), std::string::npos);
  EXPECT_NE(s.find("m=12"), std::string::npos);
  EXPECT_NE(s.find("[2, 2]"), std::string::npos);
}

TEST(AnalyzePair, SameCpuUsesSectionRegime) {
  // With s < m and both ports on one CPU, same-distance streams collide on
  // paths; with separate CPUs they do not.
  sim::MemoryConfig cfg{.banks = 12, .sections = 2, .bank_cycle = 2};
  const PairReport same = analyze_pair(cfg, 1, 1, /*same_cpu=*/true);
  const PairReport cross = analyze_pair(cfg, 1, 1, /*same_cpu=*/false);
  EXPECT_GE(cross.sweep.min_bandwidth, same.sweep.min_bandwidth);
  EXPECT_EQ(cross.sweep.max_bandwidth, Rational{2});
}

}  // namespace
}  // namespace vpmem::core
