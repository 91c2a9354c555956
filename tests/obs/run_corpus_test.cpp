// Golden run corpus: the outputs of every run entry point on a fixed set
// of configurations, pinned byte for byte in golden/run_corpus.txt.
//
// Covered: the Fig. 2, Fig. 3 and Fig. 10 (X-MP memory, two CPUs and one
// CPU with section conflicts) geometries; finite and infinite streams;
// steady-state reports with an explicit window below and above
// transient + period; `stall` and `remap_spare` fault plans; a cycle
// budget that runs out, a livelock and a cancel flag set before the run.
// Each line holds one case: the report_run / report_run_guarded JSON with
// `perf` nulled (wall-clock), or the result of run_to_completion,
// measure_bandwidth, a guarded run (sim::drive until finished) or a
// guarded bandwidth measurement (sim::drive to warmup + window).  A
// guarded measurement records status, grants and cycles; its stop detail
// is not part of the record.
//
// To regenerate after an intended output change:
//   VPMEM_UPDATE_GOLDEN=1 ./obs_run_corpus_test
// and say in the change why the outputs moved.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "vpmem/obs/report.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/sim/run.hpp"
#include "vpmem/sim/steady_state.hpp"
#include "vpmem/util/error.hpp"
#include "vpmem/xmp/machine.hpp"

namespace vpmem::obs {
namespace {

using sim::FaultEvent;
using sim::FaultPlan;
using sim::FaultPolicy;
using sim::MemoryConfig;
using sim::StreamConfig;

struct Geometry {
  std::string name;
  MemoryConfig config;
  std::vector<StreamConfig> streams;  ///< infinite
};

std::vector<Geometry> geometries() {
  const MemoryConfig xmp = xmp::XmpConfig{}.memory;
  return {
      {"fig2", {.banks = 12, .sections = 12, .bank_cycle = 3}, sim::two_streams(0, 1, 3, 7)},
      {"fig3", {.banks = 13, .sections = 13, .bank_cycle = 6}, sim::two_streams(0, 1, 0, 6)},
      {"fig10", xmp, sim::two_streams(0, 1, 0, 5)},
      {"fig10-one-cpu", xmp, sim::two_streams(0, 1, 2, 1, /*same_cpu=*/true)},
  };
}

std::vector<StreamConfig> finite(std::vector<StreamConfig> streams, i64 length) {
  for (auto& s : streams) s.length = length;
  return streams;
}

FaultPlan stall_plan() {
  FaultPlan plan;
  plan.policy = FaultPolicy::stall;
  plan.events = {
      {.kind = FaultEvent::Kind::bank_offline, .cycle = 5, .bank = 1},
      {.kind = FaultEvent::Kind::bank_stall, .cycle = 12, .bank = 3, .value = 9},
      {.kind = FaultEvent::Kind::path_offline, .cycle = 20, .cpu = 0, .section = 1},
      {.kind = FaultEvent::Kind::bank_slow, .cycle = 25, .bank = 4, .value = 7},
      {.kind = FaultEvent::Kind::path_online, .cycle = 34, .cpu = 0, .section = 1},
      {.kind = FaultEvent::Kind::bank_online, .cycle = 40, .bank = 1},
  };
  return plan;
}

FaultPlan remap_plan() {
  FaultPlan plan;
  plan.policy = FaultPolicy::remap_spare;
  plan.events = {
      {.kind = FaultEvent::Kind::bank_offline, .cycle = 10, .bank = 2},
      {.kind = FaultEvent::Kind::bank_offline, .cycle = 30, .bank = 7},
      {.kind = FaultEvent::Kind::bank_online, .cycle = 70, .bank = 2},
  };
  return plan;
}

/// A plan that pins a stream on a dead bank forever.
FaultPlan dead_bank_plan(i64 bank) {
  FaultPlan plan;
  plan.policy = FaultPolicy::stall;
  plan.events = {{.kind = FaultEvent::Kind::bank_offline, .cycle = 4, .bank = bank}};
  return plan;
}

i64 grants_of(const sim::MemorySystem& mem) {
  i64 g = 0;
  for (std::size_t i = 0; i < mem.port_count(); ++i) g += mem.port_stats(i).grants;
  return g;
}

/// Finite `streams` under `plan`, driven until they finish or the
/// watchdog stops them.
sim::GuardedRun guarded_run(const MemoryConfig& config, const std::vector<StreamConfig>& streams,
                            const FaultPlan& plan, const sim::Watchdog& watchdog) {
  sim::MemorySystem mem{config, streams, plan};
  return sim::drive(mem, watchdog);
}

/// Grants over [warmup, warmup + window) under `plan` and the watchdog,
/// whose livelock clock spans the warmup too.
Json guarded_bandwidth(const MemoryConfig& config, const std::vector<StreamConfig>& streams,
                       i64 warmup, i64 window, const FaultPlan& plan,
                       const sim::Watchdog& watchdog) {
  sim::MemorySystem mem{config, streams, plan};
  i64 before = 0;
  const sim::GuardedRun run =
      sim::drive(mem, watchdog, {.horizon = warmup + window, .until_finished = false},
                 [&](const sim::MemorySystem& m) {
                   if (m.now() == warmup) before = grants_of(m);
                   return false;
                 });
  Json out = Json::object();
  out["status"] = to_string(run.status);
  const bool opened = mem.now() > warmup;
  out["grants"] = opened ? grants_of(mem) - before : i64{0};
  out["cycles"] = opened ? mem.now() - warmup : i64{0};
  return out;
}

Json json_of_result(const sim::RunResult& r) {
  Json out = Json::object();
  out["cycles"] = r.cycles;
  Json ports = Json::array();
  for (const auto& p : r.ports) ports.push_back(json_of(p));
  out["ports"] = std::move(ports);
  out["conflicts"] = json_of(r.conflicts);
  return out;
}

Json json_of_guarded(const sim::GuardedRun& run) {
  Json out = Json::object();
  out["status"] = to_string(run.status);
  out["detail"] = run.detail;
  out["last_grant_cycle"] = run.last_grant_cycle;
  out["result"] = json_of_result(run.result);
  return out;
}

Json report_json(const RunReport& report) {
  Json out = report.to_json();
  out["perf"] = nullptr;
  return out;
}

/// The outcome of `fn`, or the code of the vpmem::Error it threw.
Json outcome(const std::function<Json()>& fn) {
  try {
    return fn();
  } catch (const vpmem::Error& e) {
    Json out = Json::object();
    out["error"] = to_string(e.code());
    return out;
  }
}

std::vector<std::string> corpus_lines() {
  std::vector<std::string> lines;
  const auto add = [&](const std::string& name, const std::function<Json()>& fn) {
    Json line = Json::object();
    line["case"] = name;
    line["out"] = outcome(fn);
    lines.push_back(line.dump());
  };

  for (const Geometry& g : geometries()) {
    const MemoryConfig& cfg = g.config;
    const std::vector<StreamConfig> fin = finite(g.streams, 40);
    const sim::SteadyState ss = sim::find_steady_state(cfg, g.streams);
    const i64 settled = ss.transient_cycles + ss.period;
    const std::string at = g.name + "/";

    add(at + "report/steady", [&] { return report_json(report_run(cfg, g.streams)); });
    add(at + "report/steady-below", [&] {
      return report_json(report_run(cfg, g.streams, {.cycles = std::max<i64>(1, settled / 2)}));
    });
    add(at + "report/steady-above",
        [&] { return report_json(report_run(cfg, g.streams, {.cycles = 4 * settled + 3})); });
    add(at + "report/finite", [&] { return report_json(report_run(cfg, fin)); });
    add(at + "report/finite-cut", [&] { return report_json(report_run(cfg, fin, {.cycles = 10})); });
    add(at + "guarded/finite", [&] { return report_json(report_run_guarded(cfg, fin)); });
    add(at + "guarded/stall", [&] {
      return report_json(report_run_guarded(cfg, g.streams, stall_plan(), {.cycles = 120}));
    });
    add(at + "guarded/remap", [&] {
      return report_json(report_run_guarded(cfg, g.streams, remap_plan(), {.cycles = 120}));
    });
    add(at + "run_to_completion",
        [&] { return json_of_result(sim::run_to_completion(cfg, fin)); });
    add(at + "measure_bandwidth", [&] { return Json{sim::measure_bandwidth(cfg, g.streams, 50, 300)}; });
    add(at + "run_guarded/stall",
        [&] { return json_of_guarded(guarded_run(cfg, fin, stall_plan(), {})); });
    add(at + "run_guarded/remap",
        [&] { return json_of_guarded(guarded_run(cfg, fin, remap_plan(), {})); });
    add(at + "measure_guarded/remap",
        [&] { return guarded_bandwidth(cfg, g.streams, 16, 200, remap_plan(), {}); });
  }

  // Stop rules other than completion, on the Fig. 3 geometry.
  const MemoryConfig fig3{.banks = 13, .sections = 13, .bank_cycle = 6};
  const std::vector<StreamConfig> pair = finite(sim::two_streams(0, 1, 0, 6), 40);
  const std::vector<StreamConfig> one{StreamConfig{.start_bank = 0, .distance = 1, .length = 64}};
  const sim::Watchdog budget{.max_cycles = 15};
  std::atomic<bool> cancelled{true};
  const sim::Watchdog cancel{.cancel = &cancelled};

  add("deadline/report_guarded",
      [&] { return report_json(report_run_guarded(fig3, pair, {}, {}, budget)); });
  add("deadline/report", [&] { return report_json(report_run(fig3, pair, {.max_cycles = 15})); });
  add("deadline/run_to_completion",
      [&] { return json_of_result(sim::run_to_completion(fig3, pair, 15)); });
  add("deadline/run_guarded", [&] { return json_of_guarded(guarded_run(fig3, pair, {}, budget)); });
  add("deadline/measure_guarded", [&] {
    return guarded_bandwidth(fig3, sim::two_streams(0, 1, 0, 6), 10, 100, {}, budget);
  });
  add("livelock/report_guarded",
      [&] { return report_json(report_run_guarded(fig3, one, dead_bank_plan(4))); });
  add("livelock/run_guarded",
      [&] { return json_of_guarded(guarded_run(fig3, one, dead_bank_plan(4), {})); });
  add("livelock/measure_guarded", [&] {
    return guarded_bandwidth(fig3, {StreamConfig{.start_bank = 0, .distance = 0}}, 16, 1000,
                             dead_bank_plan(0), {});
  });
  add("cancel/report_guarded",
      [&] { return report_json(report_run_guarded(fig3, pair, {}, {}, cancel)); });
  add("cancel/run_guarded", [&] { return json_of_guarded(guarded_run(fig3, pair, {}, cancel)); });
  add("cancel/measure_guarded", [&] {
    return guarded_bandwidth(fig3, sim::two_streams(0, 1, 0, 6), 10, 100, {}, cancel);
  });
  add("report/no-attribution",
      [&] { return report_json(report_run(fig3, sim::two_streams(0, 1, 0, 6), {.attribution = false})); });
  add("report/empty-finite", [&] { return report_json(report_run(fig3, finite(pair, 0))); });
  return lines;
}

TEST(RunCorpus, MatchesGoldenFixture) {
  const std::vector<std::string> got = corpus_lines();
  if (const char* update = std::getenv("VPMEM_UPDATE_GOLDEN"); update != nullptr) {
    std::ofstream out{VPMEM_RUN_CORPUS_GOLDEN};
    ASSERT_TRUE(out.is_open()) << VPMEM_RUN_CORPUS_GOLDEN;
    for (const std::string& line : got) out << line << '\n';
    FAIL() << "golden fixture rewritten; rerun without VPMEM_UPDATE_GOLDEN to check it";
  }
  std::ifstream in{VPMEM_RUN_CORPUS_GOLDEN};
  ASSERT_TRUE(in.is_open()) << VPMEM_RUN_CORPUS_GOLDEN;
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) want.push_back(line);
  }
  ASSERT_EQ(want.size(), got.size());
  int reported = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i] && reported++ < 5) {
      ADD_FAILURE() << "want " << want[i] << "\n got  " << got[i];
    }
  }
  EXPECT_EQ(reported, 0) << "run outputs differ from the golden fixture";
}

}  // namespace
}  // namespace vpmem::obs
