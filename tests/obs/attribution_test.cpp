// ConflictAttribution: the lost-cycle matrices must reconcile exactly
// with the simulator's own counters, and barrier-episode detection must
// agree with the analytic theorems on the paper's figures.
#include "vpmem/obs/attribution.hpp"

#include <gtest/gtest.h>

#include "vpmem/analytic/theorems.hpp"
#include "vpmem/sim/event_buffer.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/util/rational.hpp"

namespace vpmem::obs {
namespace {

/// Run `streams` for `cycles` with an attribution attached; returns the
/// finalized analyzer and leaves the simulator's stats in `stats`.
ConflictAttribution attribute_run(const sim::MemoryConfig& config,
                                  const std::vector<sim::StreamConfig>& streams, i64 cycles,
                                  std::vector<sim::PortStats>& stats,
                                  AttributionOptions options = {}) {
  sim::MemorySystem mem{config, streams};
  ConflictAttribution attribution{config, options};
  {
    sim::EventRecorder rec{mem, nullptr, streams.size() * static_cast<std::size_t>(cycles)};
    rec.buffer().set_chunk_sink(
        [&](std::span<const sim::PackedEvent> events) { attribution.observe(events); });
    mem.run(cycles, /*stop_when_finished=*/false);
    rec.buffer().flush();
  }
  attribution.finalize(mem.now());
  stats = mem.all_stats();
  return attribution;
}

void expect_matches_stats(const sim::MemoryConfig& config, const ConflictAttribution& a,
                          const std::vector<sim::PortStats>& stats) {
  i64 expected_grants = 0;
  for (std::size_t p = 0; p < stats.size(); ++p) {
    expected_grants += stats[p].grants;
    // The per-kind totals equal the stream's delay counters field-for-field.
    const sim::ConflictTotals t = a.totals(p);
    EXPECT_EQ(t.bank, stats[p].bank_conflicts) << "port " << p;
    EXPECT_EQ(t.simultaneous, stats[p].simultaneous_conflicts) << "port " << p;
    EXPECT_EQ(t.section, stats[p].section_conflicts) << "port " << p;
    // Row sums over banks reproduce the per-kind totals: the matrix never
    // loses or double-counts a delayed period.
    sim::ConflictTotals rows;
    for (i64 bank = 0; bank < config.banks; ++bank) {
      rows.bank += a.lost_cycles(p, bank, sim::ConflictKind::bank);
      rows.simultaneous += a.lost_cycles(p, bank, sim::ConflictKind::simultaneous);
      rows.section += a.lost_cycles(p, bank, sim::ConflictKind::section);
    }
    EXPECT_EQ(rows.bank, t.bank) << "port " << p;
    EXPECT_EQ(rows.simultaneous, t.simultaneous) << "port " << p;
    EXPECT_EQ(rows.section, t.section) << "port " << p;
    // Blame decomposition: every lost period is charged to some blocker.
    i64 blamed = 0;
    for (std::size_t b = 0; b < stats.size(); ++b) blamed += a.blocked_by(p, b);
    EXPECT_EQ(blamed, t.total()) << "port " << p;
  }
  EXPECT_EQ(a.total_grants(), expected_grants);
}

TEST(ConflictAttribution, MatchesAllStatsOnFig2) {
  // Fig. 2: m = 12, nc = 3, streams (0,1) and (3,7) — conflict-free.
  const sim::MemoryConfig config{.banks = 12, .sections = 12, .bank_cycle = 3};
  std::vector<sim::PortStats> stats;
  const ConflictAttribution a =
      attribute_run(config, sim::two_streams(0, 1, 3, 7), 240, stats);
  expect_matches_stats(config, a, stats);
  EXPECT_TRUE(a.episodes().empty());
  EXPECT_EQ(a.totals(0).total(), 0);
  EXPECT_EQ(a.totals(1).total(), 0);
}

TEST(ConflictAttribution, MatchesAllStatsOnFig3) {
  // Fig. 3: m = 13, nc = 6, streams (0,1) and (0,6) — barrier-situation.
  const sim::MemoryConfig config{.banks = 13, .sections = 13, .bank_cycle = 6};
  std::vector<sim::PortStats> stats;
  const ConflictAttribution a =
      attribute_run(config, sim::two_streams(0, 1, 0, 6), 312, stats);
  expect_matches_stats(config, a, stats);
}

TEST(ConflictAttribution, MatchesAllStatsOnFig7) {
  // Fig. 7 setting: m = 12, s = 2, nc = 2, both streams on one CPU.  The
  // eq. 31 offset nc*d1 = 2 (the figure's counterexample to eq. 32's
  // conflict-free offset 3) alternates section conflicts on the shared
  // access path, so both kinds of lost cycle show up in the matrices.
  const sim::MemoryConfig config{.banks = 12, .sections = 2, .bank_cycle = 2};
  std::vector<sim::PortStats> stats;
  const ConflictAttribution a =
      attribute_run(config, sim::two_streams(0, 1, 2, 1, /*same_cpu=*/true), 240, stats);
  expect_matches_stats(config, a, stats);
  EXPECT_GT(a.totals(1).section, 0);
}

TEST(ConflictAttribution, Fig3YieldsOneEpisodeAtPredictedOnset) {
  const i64 m = 13;
  const i64 nc = 6;
  const i64 d1 = 1;
  const i64 d2 = 6;
  // Theorem 4 predicts the barrier-situation with b_eff = 1 + d1/d2.
  // (Theorems 6/7 do not certify uniqueness here — eq. 24 needs
  // (2nc-1)*d2 <= m and eq. 25 presumes eq. 22, both of which fail for
  // this figure — but the observed single episode below shows the
  // barrier is reached from the figure's start position regardless.)
  ASSERT_TRUE(analytic::barrier_possible(m, nc, d1, d2));
  EXPECT_FALSE(analytic::unique_barrier(m, nc, d1, d2));
  EXPECT_EQ(analytic::barrier_bandwidth(d1, d2), Rational(7, 6));

  const sim::MemoryConfig config{.banks = m, .sections = m, .bank_cycle = nc};
  std::vector<sim::PortStats> stats;
  const ConflictAttribution a =
      attribute_run(config, sim::two_streams(0, d1, 0, d2), 312, stats);

  // Both streams start at bank 0, so stream 2 is delayed from its very
  // first request, and in steady state it re-enters the barrier within nc
  // periods of every grant: one merged episode, onset 0, stream 2.
  ASSERT_EQ(a.episodes().size(), 1u);
  const BarrierEpisode& ep = a.episodes().front();
  EXPECT_EQ(ep.port, 1u);
  EXPECT_EQ(ep.onset, 0);
  EXPECT_EQ(ep.lost_cycles, stats[1].total_conflicts());
  EXPECT_EQ(ep.kinds.bank, stats[1].bank_conflicts);
  EXPECT_EQ(ep.kinds.simultaneous, stats[1].simultaneous_conflicts);

  // The window b_eff converges to the predicted 7/6 once past startup.
  const auto& series = a.bandwidth_series();
  ASSERT_FALSE(series.empty());
  const BandwidthSample& tail = series[series.size() - 2];  // last full window
  EXPECT_NEAR(tail.b_eff(), 7.0 / 6.0, 0.15);
}

TEST(ConflictAttribution, EpisodeGapSplitsDistantStalls) {
  // Two stalls farther apart than the merge gap become two episodes.
  const sim::MemoryConfig config{.banks = 4, .sections = 4, .bank_cycle = 2};
  ConflictAttribution a{config, AttributionOptions{.episode_gap = 1}};
  // Bank conflicts (kind 1 + ConflictKind::bank) of port 0.
  const std::vector<sim::PackedEvent> events{
      {.cycle = 5, .bank = 1, .kind = 1},
      {.cycle = 6, .bank = 1, .kind = 1},
      {.cycle = 20, .bank = 2, .kind = 1},  // > gap away: new episode
  };
  a.observe(events);
  a.finalize(30);
  ASSERT_EQ(a.episodes().size(), 2u);
  EXPECT_EQ(a.episodes()[0].onset, 5);
  EXPECT_EQ(a.episodes()[0].last, 6);
  EXPECT_EQ(a.episodes()[0].lost_cycles, 2);
  EXPECT_EQ(a.episodes()[0].banks, std::vector<i64>{1});
  EXPECT_EQ(a.episodes()[1].onset, 20);
  EXPECT_EQ(a.episodes()[1].banks, std::vector<i64>{2});
}

TEST(ConflictAttribution, BandwidthSeriesCoversTheWholeWindow) {
  const sim::MemoryConfig config{.banks = 8, .sections = 8, .bank_cycle = 4};
  sim::MemorySystem mem{config, sim::two_streams(0, 1, 0, 4)};
  ConflictAttribution a{config, AttributionOptions{.window = 10}};
  {
    sim::EventRecorder rec{mem, nullptr, 2 * 95};
    rec.buffer().set_chunk_sink(
        [&](std::span<const sim::PackedEvent> events) { a.observe(events); });
    mem.run(95, /*stop_when_finished=*/false);
    rec.buffer().flush();
  }
  a.finalize(mem.now());

  const auto& series = a.bandwidth_series();
  ASSERT_EQ(series.size(), 10u);  // ceil(95 / 10)
  i64 cycles = 0;
  i64 grants = 0;
  for (const BandwidthSample& s : series) {
    EXPECT_GE(s.grants, 0);
    EXPECT_LE(s.b_eff(), static_cast<double>(mem.port_count()));
    cycles += s.cycles;
    grants += s.grants;
  }
  EXPECT_EQ(cycles, 95);
  EXPECT_EQ(series.back().cycles, 5);  // partial final window
  EXPECT_EQ(grants, a.total_grants());
}

TEST(ConflictAttribution, ObserveAfterFinalizeThrows) {
  const sim::MemoryConfig config{.banks = 4, .sections = 4, .bank_cycle = 2};
  ConflictAttribution a{config};
  a.finalize(10);
  const std::vector<sim::PackedEvent> events(1);
  EXPECT_THROW(a.observe(events), std::logic_error);
  EXPECT_THROW((ConflictAttribution{config, AttributionOptions{.window = 0}}),
               std::invalid_argument);
}

TEST(ConflictAttribution, JsonSummaryReconcilesWithCounters) {
  const sim::MemoryConfig config{.banks = 13, .sections = 13, .bank_cycle = 6};
  std::vector<sim::PortStats> stats;
  const ConflictAttribution a =
      attribute_run(config, sim::two_streams(0, 1, 0, 6), 200, stats);
  const Json doc = a.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), kAttributionSchema);
  EXPECT_EQ(doc.at("grants").as_int(), a.total_grants());
  i64 total_lost = 0;
  for (const auto& s : stats) total_lost += s.total_conflicts();
  EXPECT_EQ(doc.at("lost_cycles").at("total").as_int(), total_lost);
  // Per-port sparse matrix rows sum back to the port's counters.
  for (const Json& entry : doc.at("per_port").as_array()) {
    const auto p = static_cast<std::size_t>(entry.at("port").as_int());
    i64 bank_sum = 0;
    for (const Json& cell : entry.at("by_bank").as_array()) {
      bank_sum += cell.at("bank_conflicts").as_int();
    }
    EXPECT_EQ(bank_sum, stats[p].bank_conflicts);
  }
  // Round-trips through the strict parser.
  EXPECT_EQ(Json::parse(doc.dump()), doc);
}

}  // namespace
}  // namespace vpmem::obs
