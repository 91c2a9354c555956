// The engine's live-port bookkeeping against the naive ReferenceModel,
// event for event: step() visits only unfinished ports (an ascending
// live list; under cyclic priority it starts at the first live port at
// or after the rotation head and wraps), caches each port's next bank
// and resets only the claims it granted.  These cases drive exactly the
// edges of that bookkeeping: ports finishing mid-run while the rotation
// wraps, ports added after others finished, zero-length streams, and
// checkpoint/restore with finished ports (also under remap_spare).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "vpmem/check/reference_model.hpp"
#include "vpmem/sim/memory_system.hpp"

namespace vpmem {
namespace {

using Events = std::vector<sim::Event>;

/// Run `mem` for `cycles` periods and return the events it emitted.
Events record(sim::MemorySystem& mem, i64 cycles) {
  Events log;
  const std::size_t hook = mem.add_event_hook([&log](const sim::Event& e) { log.push_back(e); });
  mem.run(cycles, /*stop_when_finished=*/false);
  mem.remove_event_hook(hook);
  return log;
}

/// The reference model's events in [from, from + cycles).
Events reference_events(const sim::MemoryConfig& config,
                        const std::vector<sim::StreamConfig>& streams, i64 from, i64 cycles,
                        const sim::FaultPlan& plan = {}) {
  check::ReferenceModel ref{config, streams, check::FaultKind::none, plan};
  ref.run(from + cycles);
  Events out;
  for (const sim::Event& e : ref.events()) {
    if (e.cycle >= from) out.push_back(e);
  }
  return out;
}

std::string describe(const sim::Event& e) {
  std::ostringstream os;
  os << "cycle " << e.cycle << " port " << e.port << " bank " << e.bank << " element "
     << e.element;
  if (e.type == sim::Event::Type::grant) {
    os << " grant";
  } else {
    os << ' ' << sim::to_string(e.conflict) << " blocker " << e.blocker;
  }
  return os.str();
}

bool same(const sim::Event& a, const sim::Event& b) {
  return a.type == b.type && a.cycle == b.cycle && a.port == b.port && a.bank == b.bank &&
         a.element == b.element && a.blocker == b.blocker &&
         (a.type == sim::Event::Type::grant || a.conflict == b.conflict);
}

void expect_same_events(const Events& got, const Events& want, const std::string& label) {
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (!same(got[i], want[i])) {
      ADD_FAILURE() << label << ": event " << i << " differs\n  sim: " << describe(got[i])
                    << "\n  ref: " << describe(want[i]);
      return;
    }
  }
  EXPECT_EQ(got.size(), want.size()) << label;
}

sim::StreamConfig finite(i64 start, i64 d, i64 cpu, i64 length, i64 start_cycle = 0) {
  return sim::StreamConfig{
      .start_bank = start, .distance = d, .cpu = cpu, .length = length,
      .start_cycle = start_cycle};
}

TEST(LivePorts, FinishingPortsUnderCyclicPriorityWrapTheLiveList) {
  const sim::MemoryConfig config{
      .banks = 16, .sections = 4, .bank_cycle = 4, .priority = sim::PriorityRule::cyclic};
  const std::vector<sim::StreamConfig> streams{
      finite(0, 1, 0, 5),       finite(3, 2, 1, sim::kInfiniteLength),
      finite(5, 3, 0, 0),       finite(7, 5, 1, 12, 4),
      finite(2, 1, 0, 3),       finite(9, 7, 1, 40),
      finite(11, 4, 0, sim::kInfiniteLength, 9)};
  sim::MemorySystem mem{config, streams};
  const Events got = record(mem, 400);
  expect_same_events(got, reference_events(config, streams, 0, 400), "cyclic wrap");
  // Only the two infinite streams are still visited.
  EXPECT_EQ(mem.live_port_count(), 2u);
  const i64 visited = mem.ports_visited();
  mem.run(10, /*stop_when_finished=*/false);
  EXPECT_EQ(mem.ports_visited() - visited, 20);
}

TEST(LivePorts, RandomFiniteConfigsAgreeWithReference) {
  // A small deterministic generator: configs with many short and
  // zero-length streams, so ports retire all through the run.
  std::uint64_t state = 0x51ed2701;
  const auto next = [&state](i64 bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<i64>((state >> 33) % static_cast<std::uint64_t>(bound));
  };
  for (int c = 0; c < 200; ++c) {
    const i64 m = 4 + next(29);
    std::vector<i64> divisors;
    for (i64 s = 1; s <= m; ++s) {
      if (m % s == 0) divisors.push_back(s);
    }
    const sim::MemoryConfig config{
        .banks = m,
        .sections = divisors[static_cast<std::size_t>(next(static_cast<i64>(divisors.size())))],
        .bank_cycle = 1 + next(6),
        .mapping = next(2) == 0 ? sim::SectionMapping::cyclic : sim::SectionMapping::consecutive,
        .priority = next(2) == 0 ? sim::PriorityRule::cyclic : sim::PriorityRule::fixed};
    std::vector<sim::StreamConfig> streams;
    const i64 ports = 1 + next(9);
    for (i64 p = 0; p < ports; ++p) {
      const i64 length = next(5) == 0 ? sim::kInfiniteLength : next(25);
      streams.push_back(finite(next(m), next(2 * m) - m, next(3), length, next(12)));
    }
    sim::MemorySystem mem{config, streams};
    const Events got = record(mem, 150);
    expect_same_events(got, reference_events(config, streams, 0, 150),
                       "random config " + std::to_string(c));
  }
}

TEST(LivePorts, AddStreamAfterEarlierPortsFinished) {
  // Fixed priority: a port injected mid-run behaves exactly as if it had
  // been declared upfront with the same start cycle (add_stream_property
  // test), so the upfront reference model is the oracle.
  const sim::MemoryConfig config{.banks = 12, .sections = 4, .bank_cycle = 3};
  const std::vector<sim::StreamConfig> initial{finite(0, 1, 0, 6), finite(4, 2, 1, 9),
                                               finite(8, 3, 0, 4)};
  const std::vector<sim::StreamConfig> late{finite(1, 5, 0, 30, 60),
                                            finite(3, 1, 1, sim::kInfiniteLength, 75)};
  sim::MemorySystem mem{config, initial};
  Events got = record(mem, 60);
  ASSERT_TRUE(mem.finished());
  EXPECT_EQ(mem.live_port_count(), 0u);
  for (const sim::StreamConfig& s : late) mem.add_stream(s);
  EXPECT_FALSE(mem.finished());
  EXPECT_EQ(mem.live_port_count(), 2u);
  const Events tail = record(mem, 140);
  got.insert(got.end(), tail.begin(), tail.end());

  std::vector<sim::StreamConfig> upfront = initial;
  upfront.insert(upfront.end(), late.begin(), late.end());
  expect_same_events(got, reference_events(config, upfront, 0, 200), "late add_stream");
}

TEST(LivePorts, ZeroLengthStreamsAreNeverVisited) {
  for (const sim::PriorityRule rule : {sim::PriorityRule::fixed, sim::PriorityRule::cyclic}) {
    const sim::MemoryConfig config{
        .banks = 8, .sections = 2, .bank_cycle = 3, .priority = rule};
    const std::vector<sim::StreamConfig> empty{finite(0, 1, 0, 0), finite(3, 1, 1, 0)};
    sim::MemorySystem idle{config, empty};
    EXPECT_TRUE(idle.finished());
    EXPECT_EQ(idle.live_port_count(), 0u);
    EXPECT_TRUE(record(idle, 20).empty());
    EXPECT_EQ(idle.ports_visited(), 0);

    const std::vector<sim::StreamConfig> mixed{finite(0, 1, 0, 0), finite(2, 3, 1, 10),
                                               finite(5, 1, 0, 0), finite(1, 1, 0, 7),
                                               finite(6, 2, 1, 0)};
    sim::MemorySystem mem{config, mixed};
    EXPECT_EQ(mem.live_port_count(), 2u);
    expect_same_events(record(mem, 60), reference_events(config, mixed, 0, 60),
                       rule == sim::PriorityRule::cyclic ? "zero-length mix, cyclic"
                                                         : "zero-length mix, fixed");
    EXPECT_TRUE(mem.finished());
  }
}

void expect_restore_continues(const sim::MemoryConfig& config,
                              const std::vector<sim::StreamConfig>& streams,
                              const sim::FaultPlan& plan, i64 at, i64 more,
                              const std::string& label) {
  sim::MemorySystem original{config, streams, plan};
  original.run(at, /*stop_when_finished=*/false);
  const sim::SystemState state =
      sim::SystemState::from_json(Json::parse(original.checkpoint().to_json().dump()));
  sim::MemorySystem restored{state};
  EXPECT_EQ(restored.live_port_count(), original.live_port_count()) << label;
  EXPECT_EQ(restored.finished(), original.finished()) << label;
  for (std::size_t p = 0; p < restored.port_count(); ++p) {
    EXPECT_EQ(restored.next_bank(p), original.next_bank(p)) << label << " port " << p;
  }
  const Events resumed = record(restored, more);
  expect_same_events(resumed, record(original, more), label + ": restored vs original");
  expect_same_events(resumed, reference_events(config, streams, at, more, plan),
                     label + ": restored vs reference");
}

TEST(LivePorts, CheckpointRestoreWithFinishedPorts) {
  const sim::MemoryConfig config{
      .banks = 12, .sections = 4, .bank_cycle = 3, .priority = sim::PriorityRule::cyclic};
  const std::vector<sim::StreamConfig> streams{
      finite(0, 1, 0, 8),  finite(4, 5, 1, sim::kInfiniteLength), finite(2, 3, 0, 0),
      finite(7, 2, 1, 20), finite(9, 1, 0, sim::kInfiniteLength, 5)};
  expect_restore_continues(config, streams, {}, 40, 120, "healthy");

  // remap_spare: the effective bank depends on progress mod m', which the
  // restored port must rebuild from its issued count alone.
  const sim::FaultPlan plan = sim::FaultPlan::parse("remap_spare;boff@10:b3;boff@25:b7;bon@90:b3");
  expect_restore_continues(config, streams, plan, 40, 120, "remap_spare");
  expect_restore_continues(config, streams, plan, 95, 60, "remap_spare, plan drained");
}

TEST(LivePorts, FinishedPortsCostNothingPerCycle) {
  // 256 single-element ports retire early; afterwards each step visits
  // only the 3 live ones.
  const sim::MemoryConfig config{.banks = 16, .sections = 4, .bank_cycle = 4};
  std::vector<sim::StreamConfig> streams;
  for (i64 p = 0; p < 256; ++p) streams.push_back(finite(p % 16, 1, p % 2, 1));
  for (i64 p = 0; p < 3; ++p) streams.push_back(finite(p * 5, 1, p % 2, sim::kInfiniteLength));
  sim::MemorySystem mem{config, streams};
  for (int c = 0; c < 10'000 && mem.live_port_count() > 3; ++c) mem.step();
  ASSERT_EQ(mem.live_port_count(), 3u);
  for (std::size_t p = 0; p < 256; ++p) EXPECT_TRUE(mem.port_done(p));
  const i64 visited = mem.ports_visited();
  mem.run(100, /*stop_when_finished=*/false);
  EXPECT_EQ(mem.ports_visited() - visited, 300);
}

}  // namespace
}  // namespace vpmem
