// Periodic bank-pattern streams (the engine generalization that enables
// skewed storage, diagonals and synthetic random traffic).
#include <gtest/gtest.h>

#include "vpmem/sim/event_buffer.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/util/error.hpp"
#include "vpmem/sim/steady_state.hpp"

namespace vpmem::sim {
namespace {

MemoryConfig flat(i64 m, i64 nc) { return MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc}; }

TEST(PatternStream, FollowsExplicitSequence) {
  StreamConfig s;
  s.bank_pattern = {3, 1, 4, 1, 5};
  s.length = 7;  // wraps around the period
  MemorySystem mem{flat(8, 1), {s}};
  const EventRecorder rec{mem, nullptr, 100};
  mem.run(100);
  std::vector<i64> banks;
  for (const Event& e : rec.buffer().events()) {
    if (e.type == Event::Type::grant) banks.push_back(e.bank);
  }
  EXPECT_EQ(banks, (std::vector<i64>{3, 1, 4, 1, 5, 3, 1}));
}

TEST(PatternStream, ValidatesEntries) {
  StreamConfig s;
  s.bank_pattern = {0, 8};
  EXPECT_THROW(MemorySystem(flat(8, 2), {s}), vpmem::Error);
  s.bank_pattern = {-1};
  EXPECT_THROW(MemorySystem(flat(8, 2), {s}), vpmem::Error);
}

TEST(PatternStream, EquivalentToAffineStreamWhenPatternIsAffine) {
  // A pattern spelling out (b + k*d) mod m must behave identically to the
  // affine stream, including its exact steady state.
  const i64 m = 12;
  const i64 d = 5;
  StreamConfig affine;
  affine.start_bank = 2;
  affine.distance = d;
  StreamConfig pattern;
  for (i64 k = 0; k < 12; ++k) pattern.bank_pattern.push_back(mod_norm(2 + k * d, m));
  const auto a = find_steady_state(flat(m, 4), {affine});
  const auto b = find_steady_state(flat(m, 4), {pattern});
  EXPECT_EQ(a.bandwidth, b.bandwidth);
  EXPECT_EQ(a.period, b.period);
}

TEST(PatternStream, SelfConflictFromRepeatedBank) {
  StreamConfig s;
  s.bank_pattern = {0, 0};  // consecutive hits on one bank
  const auto ss = find_steady_state(flat(8, 3), {s});
  EXPECT_EQ(ss.bandwidth, (Rational{1, 3}));  // every access waits out nc
}

TEST(PatternStream, SteadyStateWithMixedStreams) {
  // One affine stream plus one pattern stream reach an exact cycle.
  StreamConfig affine;
  affine.distance = 1;
  StreamConfig pattern;
  pattern.cpu = 1;
  pattern.bank_pattern = {0, 2, 4, 6};
  const auto ss = find_steady_state(flat(8, 2), {affine, pattern});
  EXPECT_GT(ss.bandwidth, Rational{1});
  EXPECT_LE(ss.bandwidth, Rational{2});
  EXPECT_EQ(ss.per_port.size(), 2u);
}

TEST(PatternStream, NextBankReportsPatternTarget) {
  StreamConfig s;
  s.bank_pattern = {5, 2};
  MemorySystem mem{flat(8, 1), {s}};
  EXPECT_EQ(mem.next_bank(0), std::optional<i64>{5});
  mem.step();
  EXPECT_EQ(mem.next_bank(0), std::optional<i64>{2});
}

}  // namespace
}  // namespace vpmem::sim
