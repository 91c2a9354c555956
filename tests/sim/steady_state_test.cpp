#include "vpmem/sim/steady_state.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <tuple>

#include "vpmem/analytic/stream.hpp"
#include "vpmem/sim/run.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::sim {
namespace {

MemoryConfig flat(i64 m, i64 nc) { return MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc}; }

/// Code of the vpmem::Error `fn` throws; nullopt if it returns.
std::optional<ErrorCode> error_code(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  return std::nullopt;
}

TEST(SteadyState, RejectsFiniteStreams) {
  EXPECT_EQ(error_code([] {
              (void)find_steady_state(flat(8, 2),
                                      {StreamConfig{.start_bank = 0, .distance = 1, .length = 5}});
            }),
            ErrorCode::config_invalid);
}

TEST(SteadyState, SingleConflictFreeStream) {
  const SteadyState ss = find_steady_state(flat(8, 4), {StreamConfig{.distance = 1}});
  EXPECT_EQ(ss.bandwidth, Rational{1});
  EXPECT_TRUE(ss.conflict_free());
  EXPECT_EQ(ss.per_port.size(), 1u);
  EXPECT_EQ(ss.per_port[0], Rational{1});
}

TEST(SteadyState, SingleSelfConflictingStream) {
  // m = 8, d = 4 -> r = 2, nc = 5 -> b_eff = 2/5.
  const SteadyState ss = find_steady_state(flat(8, 5), {StreamConfig{.distance = 4}});
  EXPECT_EQ(ss.bandwidth, (Rational{2, 5}));
  EXPECT_FALSE(ss.conflict_free());
  EXPECT_GT(ss.conflicts_in_period.bank, 0);
}

TEST(SteadyState, PeriodOfConflictFreePairDividesLcmStructure) {
  // Fig. 2: m=12, nc=3, d1=1, d2=7, conflict-free.
  const SteadyState ss = find_steady_state(flat(12, 3), two_streams(0, 1, 3, 7));
  EXPECT_EQ(ss.bandwidth, Rational{2});
  EXPECT_TRUE(ss.conflict_free());
  EXPECT_EQ(ss.grants_in_period[0], ss.period);
  EXPECT_EQ(ss.grants_in_period[1], ss.period);
}

TEST(SteadyState, BarrierBandwidthFig3) {
  // Fig. 3: m=13, nc=6, d1=1, d2=6, b2=0 -> b_eff = 1 + 1/6.
  const SteadyState ss = find_steady_state(flat(13, 6), two_streams(0, 1, 0, 6));
  EXPECT_EQ(ss.bandwidth, (Rational{7, 6}));
  EXPECT_EQ(ss.per_port[0], Rational{1});     // barrier stream runs freely
  EXPECT_EQ(ss.per_port[1], (Rational{1, 6}));  // delayed stream
}

TEST(SteadyState, TransientBeforeCycleIsReported) {
  // Streams that synchronize first have a non-trivial transient.
  const SteadyState ss = find_steady_state(flat(12, 3), two_streams(0, 1, 0, 7));
  EXPECT_EQ(ss.bandwidth, Rational{2});  // synchronization (Theorem 3)
  EXPECT_GE(ss.transient_cycles, 0);
  EXPECT_GT(ss.period, 0);
}

TEST(SteadyState, MatchesWindowedMeasurement) {
  for (auto [d1, d2] : {std::pair<i64, i64>{1, 6}, {1, 7}, {2, 5}, {3, 3}}) {
    const MemoryConfig cfg = flat(12, 3);
    const auto streams = two_streams(0, d1, 5, d2);
    const SteadyState ss = find_steady_state(cfg, streams);
    const double measured = measure_bandwidth(cfg, streams, 2'000, 24'000);
    EXPECT_NEAR(ss.bandwidth.to_double(), measured, 0.01) << d1 << "," << d2;
  }
}

TEST(SteadyState, GuardTriggersOnTinyBudget) {
  EXPECT_EQ(error_code([] { (void)find_steady_state(flat(12, 3), two_streams(0, 1, 0, 7), 2); }),
            ErrorCode::deadline_exceeded);
}

TEST(OffsetSweep, SynchronizedPairIsOffsetIndependent) {
  // Theorem 3 + synchronization: every offset reaches b_eff = 2.
  const OffsetSweep sweep = sweep_start_offsets(flat(12, 3), 1, 7);
  EXPECT_EQ(sweep.min_bandwidth, Rational{2});
  EXPECT_EQ(sweep.max_bandwidth, Rational{2});
  EXPECT_EQ(sweep.by_offset.size(), 12u);
}

TEST(OffsetSweep, StartDependentPairHasSpread) {
  // m=13, nc=6, d1=1, d2=6: Fig. 3 (barrier, 7/6) vs Fig. 4 (double
  // conflict) depending on b2.
  const OffsetSweep sweep = sweep_start_offsets(flat(13, 6), 1, 6);
  EXPECT_LT(sweep.min_bandwidth, sweep.max_bandwidth);
  EXPECT_EQ(sweep.by_offset[0], (Rational{7, 6}));
}

// ---- Parameterized: single-stream steady state equals the Section III-A
// formula for every (m, nc, d).
using SingleParams = std::tuple<i64, i64>;  // m, nc

class SingleStreamSweep : public ::testing::TestWithParam<SingleParams> {};

TEST_P(SingleStreamSweep, MatchesAnalyticFormula) {
  const auto [m, nc] = GetParam();
  for (i64 d = 0; d < m; ++d) {
    for (i64 b : {i64{0}, m / 2}) {
      const SteadyState ss = find_steady_state(
          flat(m, nc), {StreamConfig{.start_bank = b, .distance = d}});
      EXPECT_EQ(ss.bandwidth, analytic::single_stream_bandwidth(m, d, nc))
          << "m=" << m << " nc=" << nc << " d=" << d << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SingleStreamSweep,
                         ::testing::Values(SingleParams{4, 2}, SingleParams{8, 4},
                                           SingleParams{12, 3}, SingleParams{13, 6},
                                           SingleParams{16, 4}, SingleParams{16, 7},
                                           SingleParams{32, 4}, SingleParams{24, 5}));

}  // namespace
}  // namespace vpmem::sim
