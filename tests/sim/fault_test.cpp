// Fault model: FaultPlan validation/serialization and the MemorySystem
// semantics of every event kind under both degradation policies.
#include "vpmem/sim/fault.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "vpmem/sim/event_buffer.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/sim/run.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::sim {
namespace {

MemoryConfig flat(i64 m, i64 nc) { return MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc}; }

FaultEvent boff(i64 cycle, i64 bank) {
  return FaultEvent{.kind = FaultEvent::Kind::bank_offline, .cycle = cycle, .bank = bank};
}
FaultEvent bon(i64 cycle, i64 bank) {
  return FaultEvent{.kind = FaultEvent::Kind::bank_online, .cycle = cycle, .bank = bank};
}

// ---- plan validation and serialization ------------------------------------

TEST(FaultPlan, EmptyPlanIsValidAnywhere) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_NO_THROW(plan.validate(flat(4, 2)));
}

TEST(FaultPlan, ValidateRejectsOutOfRangeFields) {
  const MemoryConfig cfg = flat(4, 2);
  const auto expect_invalid = [&cfg](FaultPlan plan) {
    try {
      plan.validate(cfg);
      FAIL() << "expected vpmem::Error";
    } catch (const vpmem::Error& e) {
      EXPECT_EQ(e.code(), vpmem::ErrorCode::fault_plan_invalid);
    }
  };
  FaultPlan plan;
  plan.events = {boff(0, 4)};  // bank out of range
  expect_invalid(plan);
  plan.events = {boff(-1, 0)};  // negative cycle
  expect_invalid(plan);
  plan.events = {boff(8, 0), boff(4, 1)};  // cycles must be non-decreasing
  expect_invalid(plan);
  plan.events = {FaultEvent{.kind = FaultEvent::Kind::bank_slow, .cycle = 0, .bank = 0,
                            .value = 0}};  // nc must be >= 1
  expect_invalid(plan);
  plan.events = {FaultEvent{.kind = FaultEvent::Kind::bank_stall, .cycle = 0, .bank = 0,
                            .value = 0}};  // window length must be >= 1
  expect_invalid(plan);
  plan.events = {FaultEvent{.kind = FaultEvent::Kind::path_offline, .cycle = 0, .cpu = 0,
                            .section = 4}};  // section out of range
  expect_invalid(plan);
}

TEST(FaultPlan, JsonAndCompactEncodingsRoundTrip) {
  FaultPlan plan;
  plan.policy = FaultPolicy::remap_spare;
  plan.events = {
      boff(4, 1),
      FaultEvent{.kind = FaultEvent::Kind::bank_slow, .cycle = 6, .bank = 2, .value = 5},
      FaultEvent{.kind = FaultEvent::Kind::bank_stall, .cycle = 8, .bank = 0, .value = 12},
      FaultEvent{.kind = FaultEvent::Kind::path_offline, .cycle = 9, .cpu = 1, .section = 3},
      FaultEvent{.kind = FaultEvent::Kind::path_online, .cycle = 11, .cpu = 1, .section = 3},
      bon(16, 1)};
  const Json json = plan.to_json();
  EXPECT_EQ(json.at("schema").as_string(), kFaultPlanSchema);
  const FaultPlan from_json = FaultPlan::from_json(json);
  EXPECT_EQ(from_json.to_json(), json);

  const std::string spec = plan.encode();
  EXPECT_EQ(spec.find(' '), std::string::npos) << spec;  // single token
  const FaultPlan parsed = FaultPlan::parse(spec);
  EXPECT_EQ(parsed.encode(), spec);
  EXPECT_EQ(parsed.to_json(), json);
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  for (const char* spec :
       {"", "bogus_policy", "stall;", "stall;xyz@0:b1", "stall;boff@x:b1", "stall;boff@0",
        "stall;boff@0:b1:v9", "stall;slow@0:b1", "stall;poff@0:b1", "stall;boff@0:b1;extra@"}) {
    try {
      static_cast<void>(FaultPlan::parse(spec));
      FAIL() << "expected vpmem::Error for: '" << spec << "'";
    } catch (const vpmem::Error& e) {
      EXPECT_EQ(e.code(), vpmem::ErrorCode::fault_plan_invalid) << spec;
    }
  }
}

TEST(FaultPolicy, ToStringRoundTrip) {
  EXPECT_EQ(fault_policy_from_string(to_string(FaultPolicy::stall)), FaultPolicy::stall);
  EXPECT_EQ(fault_policy_from_string(to_string(FaultPolicy::remap_spare)),
            FaultPolicy::remap_spare);
  EXPECT_THROW(static_cast<void>(fault_policy_from_string("bogus")), vpmem::Error);
}

// ---- MemorySystem semantics ----------------------------------------------

TEST(FaultModel, OfflineBankUnderStallBlocksAndRecovers) {
  // One stream walking d=1 over m=4: with bank 2 down in [4, 12), the
  // stream parks on bank 2 and accrues fault conflicts until recovery.
  FaultPlan plan;
  plan.events = {boff(4, 2), bon(12, 2)};
  MemorySystem mem{flat(4, 1), {StreamConfig{.start_bank = 0, .distance = 1, .length = 16}},
                   plan};
  mem.run(40);
  const auto stats = mem.all_stats();
  EXPECT_EQ(stats.at(0).grants, 16);
  EXPECT_GT(stats.at(0).fault_conflicts, 0);
  EXPECT_EQ(mem.surviving_banks(), 4);  // back online at the end
}

TEST(FaultModel, OfflineBankCountsAsFaultNotBankConflict) {
  FaultPlan plan;
  plan.events = {boff(0, 0)};
  MemorySystem mem{flat(4, 1), {StreamConfig{.start_bank = 0, .distance = 0}}, plan};
  mem.run(10);
  const auto stats = mem.all_stats();
  EXPECT_EQ(stats.at(0).grants, 0);
  EXPECT_EQ(stats.at(0).fault_conflicts, 10);
  EXPECT_EQ(stats.at(0).bank_conflicts, 0);
  EXPECT_FALSE(mem.bank_online(0));
  EXPECT_EQ(mem.surviving_banks(), 3);
}

TEST(FaultModel, RemapSpareRoutesAroundDeadBank) {
  // Under remap_spare the d=1 stream re-addresses over the m'=3
  // survivors and keeps granting every cycle — no fault conflicts.
  FaultPlan plan;
  plan.policy = FaultPolicy::remap_spare;
  plan.events = {boff(0, 2)};
  MemorySystem mem{flat(4, 1), {StreamConfig{.start_bank = 0, .distance = 1, .length = 9}},
                   plan};
  const EventRecorder rec{mem, nullptr, 20};
  mem.run(20);
  std::vector<i64> banks;
  for (const Event& e : rec.buffer().events()) {
    if (e.type == Event::Type::grant) banks.push_back(e.bank);
  }
  // Survivors ascending = {0, 1, 3}; slot k = (0 + k) mod 3.
  EXPECT_EQ(banks, (std::vector<i64>{0, 1, 3, 0, 1, 3, 0, 1, 3}));
  EXPECT_EQ(mem.all_stats().at(0).fault_conflicts, 0);
}

TEST(FaultModel, SlowBankStretchesItsServiceTime) {
  // d=0 hammers bank 0; nc=2 gives a grant every 2nd cycle, but after
  // slow@8 sets nc=4 the cadence drops to every 4th cycle.
  FaultPlan plan;
  plan.events = {
      FaultEvent{.kind = FaultEvent::Kind::bank_slow, .cycle = 8, .bank = 0, .value = 4}};
  MemorySystem mem{flat(4, 2), {StreamConfig{.start_bank = 0, .distance = 0}}, plan};
  mem.run(8);
  const i64 before = mem.all_stats().at(0).grants;
  EXPECT_EQ(before, 4);  // one grant per nc=2
  mem.run(16);
  EXPECT_EQ(mem.all_stats().at(0).grants, before + 4);  // one per nc=4 now
}

TEST(FaultModel, TransientStallWindowBlocksExactly) {
  // bstall@5 for 3 cycles: grants at t=0..4 and t>=8, faults at t=5..7.
  FaultPlan plan;
  plan.events = {
      FaultEvent{.kind = FaultEvent::Kind::bank_stall, .cycle = 5, .bank = 0, .value = 3}};
  MemorySystem mem{flat(4, 1), {StreamConfig{.start_bank = 0, .distance = 0}}, plan};
  mem.run(12);
  const auto stats = mem.all_stats();
  EXPECT_EQ(stats.at(0).fault_conflicts, 3);
  EXPECT_EQ(stats.at(0).grants, 9);
}

TEST(FaultModel, PathOutageBlocksOnlyTheAffectedCpu) {
  // Two CPUs on disjoint banks; CPU 0 loses its path to section 0 (bank
  // 0 at s=m) while CPU 1 is untouched.
  FaultPlan plan;
  plan.events = {
      FaultEvent{.kind = FaultEvent::Kind::path_offline, .cycle = 0, .cpu = 0, .section = 0},
      FaultEvent{.kind = FaultEvent::Kind::path_online, .cycle = 6, .cpu = 0, .section = 0}};
  MemorySystem mem{flat(4, 1),
                   {StreamConfig{.start_bank = 0, .distance = 0, .cpu = 0},
                    StreamConfig{.start_bank = 1, .distance = 0, .cpu = 1}},
                   plan};
  mem.run(10);
  const auto stats = mem.all_stats();
  EXPECT_EQ(stats.at(0).fault_conflicts, 6);
  EXPECT_EQ(stats.at(0).grants, 4);
  EXPECT_EQ(stats.at(1).fault_conflicts, 0);
  EXPECT_EQ(stats.at(1).grants, 10);
}

TEST(FaultModel, FaultEventsReachRecordersWithKindFault) {
  FaultPlan plan;
  plan.events = {boff(0, 0)};
  MemorySystem mem{flat(4, 1), {StreamConfig{.start_bank = 0, .distance = 0}}, plan};
  const EventRecorder rec{mem, nullptr, 5};
  mem.run(5);
  i64 fault_events = 0;
  for (const Event& e : rec.buffer().events()) {
    if (e.type == Event::Type::conflict && e.conflict == ConflictKind::fault) ++fault_events;
  }
  EXPECT_EQ(fault_events, 5);
}

TEST(FaultModel, ConstructorValidatesPlanAgainstConfig) {
  FaultPlan plan;
  plan.events = {boff(0, 99)};
  try {
    MemorySystem mem{flat(4, 1), {StreamConfig{.distance = 1}}, plan};
    FAIL() << "expected vpmem::Error";
  } catch (const vpmem::Error& e) {
    EXPECT_EQ(e.code(), vpmem::ErrorCode::fault_plan_invalid);
  }
}

TEST(FaultModel, AllBanksOfflineGrantsNothing) {
  const MemoryConfig cfg = flat(4, 1);
  for (const FaultPolicy policy : {FaultPolicy::stall, FaultPolicy::remap_spare}) {
    FaultPlan plan;
    plan.policy = policy;
    for (i64 b = 0; b < cfg.banks; ++b) plan.events.push_back(boff(0, b));
    MemorySystem mem{cfg, {StreamConfig{.start_bank = 0, .distance = 1}}, plan};
    mem.run(8);
    EXPECT_EQ(mem.all_stats().at(0).grants, 0) << to_string(policy);
    EXPECT_EQ(mem.surviving_banks(), 0) << to_string(policy);
  }
}

}  // namespace
}  // namespace vpmem::sim
