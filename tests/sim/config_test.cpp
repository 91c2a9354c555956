#include "vpmem/sim/config.hpp"

#include "vpmem/util/error.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace vpmem::sim {
namespace {

TEST(MemoryConfig, DefaultsValid) {
  MemoryConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(MemoryConfig, RejectsBadBankCounts) {
  MemoryConfig cfg;
  cfg.banks = 0;
  EXPECT_THROW(static_cast<void>(cfg.validate()), vpmem::Error);
  cfg.banks = -4;
  EXPECT_THROW(static_cast<void>(cfg.validate()), vpmem::Error);
}

TEST(MemoryConfig, RejectsSectionsNotDividingBanks) {
  MemoryConfig cfg{.banks = 12, .sections = 5};
  EXPECT_THROW(static_cast<void>(cfg.validate()), vpmem::Error);
  cfg.sections = 13;
  EXPECT_THROW(static_cast<void>(cfg.validate()), vpmem::Error);
  cfg.sections = 0;
  EXPECT_THROW(static_cast<void>(cfg.validate()), vpmem::Error);
  cfg.sections = 3;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(MemoryConfig, RejectsBadBankCycle) {
  MemoryConfig cfg;
  cfg.bank_cycle = 0;
  EXPECT_THROW(static_cast<void>(cfg.validate()), vpmem::Error);
}

TEST(MemoryConfig, ValidationErrorsCarryStableCode) {
  MemoryConfig cfg;
  cfg.banks = 0;
  try {
    cfg.validate();
    FAIL() << "expected vpmem::Error";
  } catch (const vpmem::Error& e) {
    EXPECT_EQ(e.code(), vpmem::ErrorCode::config_invalid);
    EXPECT_EQ(to_string(e.code()), "config_invalid");
  }
}

TEST(MemoryConfig, CyclicSectionMapping) {
  // The paper's k = j mod s.
  MemoryConfig cfg{.banks = 12, .sections = 3};
  EXPECT_EQ(cfg.section_of(0), 0);
  EXPECT_EQ(cfg.section_of(1), 1);
  EXPECT_EQ(cfg.section_of(2), 2);
  EXPECT_EQ(cfg.section_of(3), 0);
  EXPECT_EQ(cfg.section_of(11), 2);
}

TEST(MemoryConfig, ConsecutiveSectionMapping) {
  // Cheung & Smith: m/s consecutive banks per section (Fig. 9).
  MemoryConfig cfg{.banks = 12, .sections = 3, .mapping = SectionMapping::consecutive};
  EXPECT_EQ(cfg.section_of(0), 0);
  EXPECT_EQ(cfg.section_of(3), 0);
  EXPECT_EQ(cfg.section_of(4), 1);
  EXPECT_EQ(cfg.section_of(7), 1);
  EXPECT_EQ(cfg.section_of(8), 2);
  EXPECT_EQ(cfg.section_of(11), 2);
}

TEST(MemoryConfig, SectionOfRejectsOutOfRange) {
  MemoryConfig cfg{.banks = 12, .sections = 3};
  EXPECT_THROW(static_cast<void>(cfg.section_of(-1)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(cfg.section_of(12)), std::out_of_range);
}

TEST(StreamConfig, Validation) {
  MemoryConfig cfg{.banks = 8, .sections = 8};
  StreamConfig s;
  EXPECT_NO_THROW(s.validate(cfg));
  s.start_bank = 8;
  EXPECT_THROW(static_cast<void>(s.validate(cfg)), vpmem::Error);
  s.start_bank = -1;
  EXPECT_THROW(static_cast<void>(s.validate(cfg)), vpmem::Error);
  s.start_bank = 0;
  s.distance = -1;  // negative strides are legal (reduced mod m)
  EXPECT_NO_THROW(s.validate(cfg));
  s.distance = 1;
  s.length = -2;
  EXPECT_THROW(static_cast<void>(s.validate(cfg)), vpmem::Error);
  s.length = 10;
  s.start_cycle = -1;
  EXPECT_THROW(static_cast<void>(s.validate(cfg)), vpmem::Error);
  s.cpu = -1;
  EXPECT_THROW(static_cast<void>(s.validate(cfg)), vpmem::Error);
}

TEST(TwoStreams, CpuAssignment) {
  const auto other = two_streams(0, 1, 3, 7, /*same_cpu=*/false);
  ASSERT_EQ(other.size(), 2u);
  EXPECT_EQ(other[0].cpu, 0);
  EXPECT_EQ(other[1].cpu, 1);
  EXPECT_EQ(other[1].start_bank, 3);
  EXPECT_EQ(other[1].distance, 7);
  const auto same = two_streams(0, 1, 3, 7, /*same_cpu=*/true);
  EXPECT_EQ(same[1].cpu, 0);
}

TEST(StreamConfig, BankOfStaysDefinedForHugeElementIndices) {
  // start + k*d overflows i64 for k near 2^62; bank_of reduces k and d
  // mod m first (this suite runs under UBSan in the sanitizer pass).
  // Expected values: (2 + (2^62 + 1) * 5) mod 7 = 6 and
  // (2 + (2^62 + 1) * -3) mod 7 = 1.
  const i64 k = (i64{1} << 62) + 1;
  StreamConfig s;
  s.start_bank = 2;
  s.distance = 5;
  EXPECT_EQ(s.bank_of(k, 7), 6);
  s.distance = -3;
  EXPECT_EQ(s.bank_of(k, 7), 1);
  s.distance = std::numeric_limits<i64>::max();  // 2^63 - 1 == 0 mod 7
  EXPECT_EQ(s.bank_of(k, 7), 2);
  // A modulus beyond 2^31 takes mul_mod's double-and-add path:
  // 2^60 * 4 mod (2^61 - 1) = 2.
  s.start_bank = 0;
  s.distance = 4;
  EXPECT_EQ(s.bank_of(i64{1} << 60, (i64{1} << 61) - 1), 2);
  // Small indices: (3 + 5 * -1) mod 16 = 14.
  s.start_bank = 3;
  s.distance = -1;
  EXPECT_EQ(s.bank_of(5, 16), 14);
}

TEST(Enums, ToString) {
  EXPECT_EQ(to_string(SectionMapping::cyclic), "cyclic");
  EXPECT_EQ(to_string(SectionMapping::consecutive), "consecutive");
  EXPECT_EQ(to_string(PriorityRule::fixed), "fixed");
  EXPECT_EQ(to_string(PriorityRule::cyclic), "cyclic");
}

}  // namespace
}  // namespace vpmem::sim
