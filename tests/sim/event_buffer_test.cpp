// Tests for the bounded chunked event store every observer records into.
#include "vpmem/sim/event_buffer.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "vpmem/sim/memory_system.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::sim {
namespace {

Event make_event(i64 cycle, Event::Type type, std::size_t port, i64 bank,
                 ConflictKind kind = ConflictKind::bank, std::size_t blocker = 0) {
  Event e;
  e.type = type;
  e.cycle = cycle;
  e.port = port;
  e.bank = bank;
  e.element = cycle * 7 + bank;
  e.conflict = kind;
  e.blocker = blocker;
  return e;
}

TEST(PackedEvent, RoundTripsEveryKind) {
  for (const ConflictKind kind :
       {ConflictKind::bank, ConflictKind::simultaneous, ConflictKind::section}) {
    for (const Event::Type type : {Event::Type::grant, Event::Type::conflict}) {
      const Event in = make_event(123456789, type, 11, 4095, kind, 7);
      EventBuffer buf;
      buf.push(in);
      const Event out = buf.events().front();
      EXPECT_EQ(out.type, in.type);
      EXPECT_EQ(out.cycle, in.cycle);
      EXPECT_EQ(out.port, in.port);
      EXPECT_EQ(out.bank, in.bank);
      EXPECT_EQ(out.element, in.element);
      EXPECT_EQ(out.blocker, in.blocker);
      if (type == Event::Type::conflict) {
        EXPECT_EQ(out.conflict, in.conflict);
      }
    }
  }
}

TEST(EventBuffer, CapacityRoundsUpToWholeChunks) {
  EventBuffer buf{1};
  EXPECT_EQ(buf.capacity(), 1u);  // below one chunk: a single chunk of that size
  EventBuffer two{EventBuffer::kChunkEvents + 1};
  EXPECT_EQ(two.capacity(), 2 * EventBuffer::kChunkEvents);
  EventBuffer dflt{0};
  EXPECT_EQ(dflt.capacity(), EventBuffer::kDefaultCapacity);
}

TEST(EventBuffer, EvictsOldestChunkAndCountsDrops) {
  EventBuffer buf{EventBuffer::kChunkEvents};  // one-chunk ring
  const auto n = static_cast<i64>(EventBuffer::kChunkEvents);
  for (i64 c = 0; c < n + 5; ++c) {
    buf.push(make_event(c, Event::Type::grant, 0, c % 7));
  }
  EXPECT_EQ(buf.recorded(), n + 5);
  EXPECT_EQ(buf.dropped(), n);  // the full first chunk went away at once
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.first_cycle(), n);  // retained window starts after the evicted chunk
  i64 seen = 0;
  i64 prev = -1;
  buf.for_each([&](const Event& e) {
    EXPECT_GT(e.cycle, prev);
    prev = e.cycle;
    ++seen;
  });
  EXPECT_EQ(seen, 5);
}

TEST(EventBuffer, SubChunkCapacityDeliversEveryEventOnceAndEvicts) {
  // 10 events in a 3-event buffer: the sink still sees all of them, in
  // order, exactly once, while the ring keeps only the newest partial
  // chunk (eviction drops whole 3-event chunks).
  EventBuffer buf{3};
  EXPECT_EQ(buf.capacity(), 3u);
  std::vector<i64> delivered;
  buf.set_chunk_sink([&delivered](std::span<const PackedEvent> events) {
    for (const PackedEvent& p : events) delivered.push_back(p.cycle);
  });
  for (i64 c = 0; c < 10; ++c) buf.push(make_event(c, Event::Type::grant, 0, c % 5));
  EXPECT_EQ(delivered, (std::vector<i64>{0, 1, 2, 3, 4, 5, 6, 7, 8}));  // closed chunks
  buf.flush();
  buf.flush();  // nothing new: no duplicate delivery
  EXPECT_EQ(delivered, (std::vector<i64>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(buf.recorded(), 10);
  EXPECT_EQ(buf.dropped(), 9);
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.first_cycle(), 9);
  EXPECT_EQ(buf.events().front().cycle, 9);
}

TEST(EventBuffer, SinkCapacityBoundsARunByPortsTimesCycles) {
  EXPECT_EQ(sink_capacity(4, 224), 896u);
  EXPECT_EQ(sink_capacity(8, 1'000'000), EventBuffer::kChunkEvents);
  EXPECT_EQ(sink_capacity(3, std::numeric_limits<i64>::max()), EventBuffer::kChunkEvents);
  EXPECT_EQ(sink_capacity(0, 100), 1u);  // never 0 (the default capacity)
  EXPECT_EQ(sink_capacity(2, 0), 1u);
}

TEST(EventBuffer, RejectsOutOfRangeFields) {
  // A field too wide to pack is a typed configuration error, and nothing
  // is recorded.
  const auto expect_config_error = [](const Event& wide) {
    EventBuffer buf{1};
    try {
      buf.push(wide);
      ADD_FAILURE() << "expected vpmem::Error";
    } catch (const vpmem::Error& e) {
      EXPECT_EQ(e.code(), vpmem::ErrorCode::config_invalid);
    }
    EXPECT_EQ(buf.recorded(), 0);
  };
  Event wide = make_event(0, Event::Type::conflict, 0, 0);
  wide.port = 70000;
  expect_config_error(wide);
  wide = make_event(0, Event::Type::grant, 0, 0);
  wide.port = std::numeric_limits<std::uint16_t>::max() + 1u;
  expect_config_error(wide);
  wide = make_event(0, Event::Type::grant, 0, 0);
  wide.blocker = std::numeric_limits<std::uint16_t>::max() + 1u;
  expect_config_error(wide);
  wide = make_event(0, Event::Type::grant, 0, 0);
  wide.bank = static_cast<i64>(std::numeric_limits<std::int32_t>::max()) + 1;
  expect_config_error(wide);
}

TEST(EventBuffer, ClearResetsCounters) {
  EventBuffer buf;
  buf.push(make_event(0, Event::Type::grant, 0, 0));
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.recorded(), 0);
  EXPECT_EQ(buf.dropped(), 0);
  EXPECT_EQ(buf.first_cycle(), 0);
}

TEST(EventRecorder, RecordsARunAndDetaches) {
  const MemoryConfig config{.banks = 8, .sections = 8, .bank_cycle = 3};
  MemorySystem mem{config, two_streams(0, 1, 0, 2)};
  EventRecorder rec{mem};
  mem.run(40, /*stop_when_finished=*/false);
  const i64 recorded = rec.buffer().recorded();
  EXPECT_GT(recorded, 0);
  // Every event of the run is in the buffer: grants + conflicts equal the
  // simulator's own counters.
  i64 expected = 0;
  for (const auto& s : mem.all_stats()) expected += s.grants + s.total_conflicts();
  EXPECT_EQ(recorded, expected);
  rec.detach();
  mem.run(10, /*stop_when_finished=*/false);
  EXPECT_EQ(rec.buffer().recorded(), recorded);
  EXPECT_EQ(mem.recorder_count(), 0u);
}

TEST(EventRecorder, SharesOneBufferBetweenObservers) {
  const MemoryConfig config{.banks = 8, .sections = 8, .bank_cycle = 3};
  MemorySystem mem{config, two_streams(0, 1, 0, 2)};
  EventRecorder rec{mem};
  {
    // A second recorder on the same buffer would double-record; sharing
    // means handing the buffer to a *reader*, so only verify the pointer
    // identity contract here.
    const std::shared_ptr<EventBuffer> shared = rec.share();
    EXPECT_EQ(shared.get(), &rec.buffer());
  }
  mem.run(10, /*stop_when_finished=*/false);
  EXPECT_GT(rec.buffer().recorded(), 0);
}

}  // namespace
}  // namespace vpmem::sim
