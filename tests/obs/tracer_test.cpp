// Tracer: Chrome trace-event export (schema vpmem.trace/1), buffer vs
// independent-fold reconciliation, and the shared-buffer path into
// Timeline.
#include "vpmem/obs/tracer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "vpmem/sim/event_buffer.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/trace/timeline.hpp"

namespace vpmem::obs {
namespace {

// Fig. 3 of the paper: m = 13, nc = 6, streams (0,1) and (0,6) — the
// barrier-situation with b_eff = 7/6, rich in both grants and conflicts.
const sim::MemoryConfig kFig3{.banks = 13, .sections = 13, .bank_cycle = 6};

std::vector<sim::StreamConfig> fig3_streams() { return sim::two_streams(0, 1, 0, 6); }

TEST(Tracer, EventCountsMatchIndependentFold) {
  sim::MemorySystem mem{kFig3, fig3_streams()};
  // A second recorder with its own fold recounts the stream independently
  // of the tracer's buffer.
  ConflictAttribution fold{kFig3};
  sim::EventRecorder rec{mem, nullptr, 2 * 156};
  rec.buffer().set_chunk_sink(
      [&fold](std::span<const sim::PackedEvent> events) { fold.observe(events); });
  Tracer tracer{mem};
  mem.run(156, /*stop_when_finished=*/false);
  rec.buffer().flush();
  rec.detach();
  fold.finalize(mem.now(), mem.port_count());
  tracer.finish();

  i64 grants = 0;
  i64 conflicts = 0;
  for (const auto& p : fold.port_stats()) {
    grants += p.grants;
    conflicts += p.total_conflicts();
  }
  EXPECT_EQ(tracer.buffer().recorded(), grants + conflicts);
  EXPECT_EQ(tracer.buffer().dropped(), 0);

  i64 buffer_grants = 0;
  i64 buffer_conflicts = 0;
  tracer.buffer().for_each([&](const sim::Event& e) {
    (e.type == sim::Event::Type::grant ? buffer_grants : buffer_conflicts) += 1;
  });
  EXPECT_EQ(buffer_grants, grants);
  EXPECT_EQ(buffer_conflicts, conflicts);
}

TEST(Tracer, AttributionMatchesAllStats) {
  sim::MemorySystem mem{kFig3, fig3_streams()};
  Tracer tracer{mem};
  mem.run(156, /*stop_when_finished=*/false);
  tracer.finish();

  const ConflictAttribution* a = tracer.attribution();
  ASSERT_NE(a, nullptr);
  const auto stats = mem.all_stats();
  for (std::size_t p = 0; p < stats.size(); ++p) {
    const sim::ConflictTotals t = a->totals(p);
    EXPECT_EQ(t.bank, stats[p].bank_conflicts);
    EXPECT_EQ(t.simultaneous, stats[p].simultaneous_conflicts);
    EXPECT_EQ(t.section, stats[p].section_conflicts);
  }
}

TEST(Tracer, ChromeTraceRoundTripsThroughJson) {
  sim::MemorySystem mem{kFig3, fig3_streams()};
  Tracer tracer{mem};
  mem.run(84, /*stop_when_finished=*/false);

  std::ostringstream os;
  tracer.write_chrome_trace(os);  // implies finish()
  const Json doc = Json::parse(os.str());
  EXPECT_EQ(doc, tracer.chrome_trace());

  EXPECT_EQ(doc.at("schema").as_string(), kTraceSchema);
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());

  // Track metadata: both synthetic processes are named, and every bank /
  // port has a thread_name row.
  i64 process_names = 0;
  i64 thread_names = 0;
  i64 grant_slices = 0;
  i64 service_slices = 0;
  i64 conflict_instants = 0;
  i64 counter_samples = 0;
  for (const Json& e : events) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") {
      (e.at("name").as_string() == "process_name" ? process_names : thread_names) += 1;
      continue;
    }
    if (ph == "C") {
      ++counter_samples;
      continue;
    }
    if (ph == "i") {
      ++conflict_instants;
      const Json& args = e.at("args");
      EXPECT_TRUE(args.contains("kind"));
      EXPECT_TRUE(args.contains("blocker"));
      EXPECT_TRUE(args.contains("element"));
      continue;
    }
    ASSERT_EQ(ph, "X");
    if (e.at("pid").as_int() == 1) {
      ++service_slices;
      EXPECT_EQ(e.at("dur").as_int(), kFig3.bank_cycle);
    } else {
      ++grant_slices;
      EXPECT_EQ(e.at("dur").as_int(), 1);
    }
  }
  EXPECT_EQ(process_names, 2);
  EXPECT_EQ(thread_names, kFig3.banks + static_cast<i64>(mem.port_count()));

  // One service slice + one transfer slice per grant, one instant per
  // conflict, one counter sample per b_eff window.
  const auto stats = mem.all_stats();
  i64 grants = 0;
  i64 conflicts = 0;
  for (const auto& p : stats) {
    grants += p.grants;
    conflicts += p.total_conflicts();
  }
  EXPECT_EQ(service_slices, grants);
  EXPECT_EQ(grant_slices, grants);
  EXPECT_EQ(conflict_instants, conflicts);
  ASSERT_NE(tracer.attribution(), nullptr);
  EXPECT_EQ(counter_samples,
            static_cast<i64>(tracer.attribution()->bandwidth_series().size()));

  // The embedded attribution summary reconciles with the engine counters.
  const Json& attr = doc.at("otherData").at("attribution");
  EXPECT_EQ(attr.at("schema").as_string(), kAttributionSchema);
  EXPECT_EQ(attr.at("grants").as_int(), grants);
  EXPECT_EQ(attr.at("lost_cycles").at("total").as_int(), conflicts);
}

TEST(Tracer, SaveWritesAParseableFile) {
  sim::MemorySystem mem{kFig3, fig3_streams()};
  Tracer tracer{mem};
  mem.run(30, /*stop_when_finished=*/false);
  const std::string path = ::testing::TempDir() + "vpmem_tracer_test_trace.json";
  tracer.save_chrome_trace(path);
  std::ifstream in{path};
  ASSERT_TRUE(in.is_open());
  std::stringstream content;
  content << in.rdbuf();
  const Json doc = Json::parse(content.str());
  EXPECT_EQ(doc.at("schema").as_string(), kTraceSchema);
  std::remove(path.c_str());
  EXPECT_THROW(tracer.save_chrome_trace("/nonexistent-dir/trace.json"), std::runtime_error);
}

TEST(Tracer, FinishDetachesAndIsIdempotent) {
  sim::MemorySystem mem{kFig3, fig3_streams()};
  Tracer tracer{mem};
  EXPECT_EQ(mem.recorder_count(), 1u);
  mem.run(20, /*stop_when_finished=*/false);
  tracer.finish();
  tracer.finish();
  EXPECT_EQ(mem.recorder_count(), 0u);
  const i64 recorded = tracer.buffer().recorded();
  mem.run(20, /*stop_when_finished=*/false);
  EXPECT_EQ(tracer.buffer().recorded(), recorded);
}

TEST(Tracer, AttributionCanBeDisabled) {
  sim::MemorySystem mem{kFig3, fig3_streams()};
  Tracer tracer{mem, TracerOptions{.attribution = false}};
  mem.run(40, /*stop_when_finished=*/false);
  EXPECT_EQ(tracer.attribution(), nullptr);
  const Json doc = tracer.chrome_trace();
  for (const Json& e : doc.at("traceEvents").as_array()) {
    EXPECT_NE(e.at("ph").as_string(), "C");
  }
  EXPECT_TRUE(doc.at("otherData").at("attribution").is_null());
}

TEST(Tracer, BoundedCapacityEvictsButAttributionStaysExact) {
  sim::MemorySystem mem{kFig3, fig3_streams()};
  // Tiny buffer: a single one-event chunk. The run emits ~2 events/cycle,
  // so nearly all of them are evicted — attribution must not notice.
  Tracer tracer{mem, TracerOptions{.capacity = 1}};
  mem.run(3000, /*stop_when_finished=*/false);
  tracer.finish();
  EXPECT_GT(tracer.buffer().dropped(), 0);
  const auto stats = mem.all_stats();
  ASSERT_NE(tracer.attribution(), nullptr);
  for (std::size_t p = 0; p < stats.size(); ++p) {
    EXPECT_EQ(tracer.attribution()->totals(p).total(), stats[p].total_conflicts());
  }
}

TEST(Tracer, SharesBufferWithTimeline) {
  sim::MemorySystem mem{kFig3, fig3_streams()};
  Tracer tracer{mem};
  trace::Timeline timeline{mem, tracer.share_buffer()};
  mem.run(26, /*stop_when_finished=*/false);
  // Only the tracer's recorder is attached; the Timeline reads the same
  // buffer without recording the stream twice.
  EXPECT_EQ(mem.recorder_count(), 1u);
  const auto grid = timeline.grid(0, 26);
  ASSERT_EQ(grid.size(), static_cast<std::size_t>(kFig3.banks));
  // Fig. 3's opening pattern on bank 0: stream 1 is granted at cycle 0
  // and stream 2 waits on the active bank ("1<<<<<").
  EXPECT_EQ(grid[0].substr(0, 6), "1<<<<<");
  EXPECT_EQ(timeline.events().size(), static_cast<std::size_t>(tracer.buffer().size()));
}

}  // namespace
}  // namespace vpmem::obs
