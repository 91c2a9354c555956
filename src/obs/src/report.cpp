#include "vpmem/obs/report.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "vpmem/obs/attribution.hpp"
#include "vpmem/obs/timer.hpp"
#include "vpmem/sim/event_buffer.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::obs {

namespace {

sim::SectionMapping mapping_from_string(const std::string& s) {
  if (s == to_string(sim::SectionMapping::cyclic)) return sim::SectionMapping::cyclic;
  if (s == to_string(sim::SectionMapping::consecutive)) return sim::SectionMapping::consecutive;
  throw std::runtime_error{"RunReport: unknown section mapping '" + s + "'"};
}

sim::PriorityRule priority_from_string(const std::string& s) {
  if (s == to_string(sim::PriorityRule::fixed)) return sim::PriorityRule::fixed;
  if (s == to_string(sim::PriorityRule::cyclic)) return sim::PriorityRule::cyclic;
  throw std::runtime_error{"RunReport: unknown priority rule '" + s + "'"};
}

sim::PortStats port_stats_from_json(const Json& json) {
  sim::PortStats p;
  p.grants = json.at("grants").as_int();
  p.bank_conflicts = json.at("bank_conflicts").as_int();
  p.simultaneous_conflicts = json.at("simultaneous_conflicts").as_int();
  p.section_conflicts = json.at("section_conflicts").as_int();
  // Reports written before the fault model lack the fault counter.
  if (json.contains("fault_conflicts")) p.fault_conflicts = json.at("fault_conflicts").as_int();
  p.first_grant_cycle = json.at("first_grant_cycle").as_int();
  p.last_grant_cycle = json.at("last_grant_cycle").as_int();
  p.longest_stall = json.at("longest_stall").as_int();
  return p;
}

sim::ConflictTotals totals_from_json(const Json& json) {
  sim::ConflictTotals t;
  t.bank = json.at("bank").as_int();
  t.simultaneous = json.at("simultaneous").as_int();
  t.section = json.at("section").as_int();
  if (json.contains("fault")) t.fault = json.at("fault").as_int();
  return t;
}

Rational rational_from_json(const Json& json) {
  return Rational{json.at("num").as_int(), json.at("den").as_int()};
}

}  // namespace

Json json_of(const sim::PortStats& stats) {
  Json out = Json::object();
  out["grants"] = stats.grants;
  out["bank_conflicts"] = stats.bank_conflicts;
  out["simultaneous_conflicts"] = stats.simultaneous_conflicts;
  out["section_conflicts"] = stats.section_conflicts;
  out["fault_conflicts"] = stats.fault_conflicts;
  out["first_grant_cycle"] = stats.first_grant_cycle;
  out["last_grant_cycle"] = stats.last_grant_cycle;
  out["longest_stall"] = stats.longest_stall;
  return out;
}

Json json_of(const sim::ConflictTotals& totals) {
  Json out = Json::object();
  out["bank"] = totals.bank;
  out["simultaneous"] = totals.simultaneous;
  out["section"] = totals.section;
  out["fault"] = totals.fault;
  out["total"] = totals.total();
  return out;
}

Json json_of(const Rational& r) {
  Json out = Json::object();
  out["num"] = r.num();
  out["den"] = r.den();
  out["value"] = r.to_double();
  return out;
}

Json json_of(const sim::MemoryConfig& config) {
  Json out = Json::object();
  out["banks"] = config.banks;
  out["sections"] = config.sections;
  out["bank_cycle"] = config.bank_cycle;
  out["mapping"] = to_string(config.mapping);
  out["priority"] = to_string(config.priority);
  return out;
}

Json json_of(const sim::StreamConfig& stream) {
  Json out = Json::object();
  out["start_bank"] = stream.start_bank;
  out["distance"] = stream.distance;
  out["cpu"] = stream.cpu;
  out["length"] = stream.length == sim::kInfiniteLength ? Json{nullptr} : Json{stream.length};
  out["start_cycle"] = stream.start_cycle;
  Json pattern = Json::array();
  for (const i64 b : stream.bank_pattern) pattern.push_back(b);
  out["bank_pattern"] = std::move(pattern);
  return out;
}

Json RunReport::to_json() const {
  Json out = Json::object();
  out["schema"] = kRunReportSchema;
  out["kind"] = kind;
  out["status"] = status;
  if (!status_detail.empty()) out["status_detail"] = status_detail;
  out["config"] = json_of(config);
  Json stream_list = Json::array();
  for (const auto& s : streams) stream_list.push_back(json_of(s));
  out["streams"] = std::move(stream_list);
  out["fault_plan"] = fault_plan.empty() ? Json{nullptr} : fault_plan.to_json();

  Json window = Json::object();
  window["cycles"] = cycles;
  window["bandwidth"] = window_bandwidth;
  window["conflicts"] = json_of(conflicts);
  window["bank_utilization"] = bank_utilization;
  window["hottest_bank"] = hottest_bank;
  Json grants = Json::array();
  for (const i64 g : bank_grants) grants.push_back(g);
  window["bank_grants"] = std::move(grants);
  out["window"] = std::move(window);

  Json port_list = Json::array();
  for (const auto& p : ports) port_list.push_back(json_of(p));
  out["ports"] = std::move(port_list);

  if (steady_state) {
    Json ss = Json::object();
    ss["b_eff"] = json_of(steady_state->b_eff);
    Json per_port = Json::array();
    for (const auto& r : steady_state->per_port) per_port.push_back(json_of(r));
    ss["per_port"] = std::move(per_port);
    ss["transient_cycles"] = steady_state->transient_cycles;
    ss["period"] = steady_state->period;
    Json gip = Json::array();
    for (const i64 g : steady_state->grants_in_period) gip.push_back(g);
    ss["grants_in_period"] = std::move(gip);
    ss["conflicts_in_period"] = json_of(steady_state->conflicts_in_period);
    out["steady_state"] = std::move(ss);
  } else {
    out["steady_state"] = nullptr;
  }

  out["metrics"] = metrics;
  out["attribution"] = attribution;

  Json perf_json = Json::object();
  perf_json["wall_seconds"] = perf.wall_seconds;
  perf_json["cycles_simulated"] = perf.cycles_simulated;
  perf_json["cycles_per_second"] = perf.cycles_per_second();
  out["perf"] = std::move(perf_json);
  return out;
}

RunReport RunReport::from_json(const Json& json) {
  if (!json.contains("schema") || json.at("schema").as_string() != kRunReportSchema) {
    throw std::runtime_error{"RunReport::from_json: unknown or missing schema"};
  }
  RunReport report;
  report.kind = json.at("kind").as_string();
  // Reports written before the fault model lack status and fault_plan;
  // read them tolerantly (a pre-fault report always ran to completion).
  if (json.contains("status")) report.status = json.at("status").as_string();
  if (json.contains("status_detail")) {
    report.status_detail = json.at("status_detail").as_string();
  }
  if (json.contains("fault_plan") && !json.at("fault_plan").is_null()) {
    report.fault_plan = sim::FaultPlan::from_json(json.at("fault_plan"));
  }

  const Json& cfg = json.at("config");
  report.config.banks = cfg.at("banks").as_int();
  report.config.sections = cfg.at("sections").as_int();
  report.config.bank_cycle = cfg.at("bank_cycle").as_int();
  report.config.mapping = mapping_from_string(cfg.at("mapping").as_string());
  report.config.priority = priority_from_string(cfg.at("priority").as_string());

  for (const Json& s : json.at("streams").as_array()) {
    sim::StreamConfig stream;
    stream.start_bank = s.at("start_bank").as_int();
    stream.distance = s.at("distance").as_int();
    stream.cpu = s.at("cpu").as_int();
    stream.length = s.at("length").is_null() ? sim::kInfiniteLength : s.at("length").as_int();
    stream.start_cycle = s.at("start_cycle").as_int();
    for (const Json& b : s.at("bank_pattern").as_array()) {
      stream.bank_pattern.push_back(b.as_int());
    }
    report.streams.push_back(std::move(stream));
  }

  const Json& window = json.at("window");
  report.cycles = window.at("cycles").as_int();
  report.window_bandwidth = window.at("bandwidth").as_double();
  report.conflicts = totals_from_json(window.at("conflicts"));
  report.bank_utilization = window.at("bank_utilization").as_double();
  report.hottest_bank = window.at("hottest_bank").as_int();
  for (const Json& g : window.at("bank_grants").as_array()) {
    report.bank_grants.push_back(g.as_int());
  }

  for (const Json& p : json.at("ports").as_array()) {
    report.ports.push_back(port_stats_from_json(p));
  }

  if (!json.at("steady_state").is_null()) {
    const Json& ss = json.at("steady_state");
    SteadyStateReport steady;
    steady.b_eff = rational_from_json(ss.at("b_eff"));
    for (const Json& r : ss.at("per_port").as_array()) {
      steady.per_port.push_back(rational_from_json(r));
    }
    steady.transient_cycles = ss.at("transient_cycles").as_int();
    steady.period = ss.at("period").as_int();
    for (const Json& g : ss.at("grants_in_period").as_array()) {
      steady.grants_in_period.push_back(g.as_int());
    }
    steady.conflicts_in_period = totals_from_json(ss.at("conflicts_in_period"));
    report.steady_state = std::move(steady);
  }

  report.metrics = json.at("metrics");
  // Reports written before tracing v2 lack the attribution block; treat it
  // as absent (null) rather than rejecting the document.
  if (json.contains("attribution")) report.attribution = json.at("attribution");

  const Json& perf = json.at("perf");
  report.perf.wall_seconds = perf.at("wall_seconds").as_double();
  report.perf.cycles_simulated = perf.at("cycles_simulated").as_int();
  return report;
}

void RunReport::write_json(std::ostream& os, int indent) const {
  to_json().dump(os, indent);
  os << '\n';
}

void RunReport::append_jsonl(std::ostream& os) const { vpmem::append_jsonl(os, to_json()); }

void RunReport::save(const std::string& path, int indent) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"RunReport::save: cannot open '" + path + "'"};
  write_json(out, indent);
}

namespace {

/// The body both report_run variants share: build the machine with a
/// recorder whose chunk sink is the attribution fold, drive it, and fill
/// the status, window, bank and metrics fields (and the attribution block
/// when options.attribution is on).
sim::RunStatus observe_run(RunReport& report, const ReportOptions& options,
                           const sim::Watchdog& watchdog, i64 horizon) {
  sim::MemorySystem mem{report.config, report.streams, report.fault_plan};
  // The fold always runs: it is the metrics block too.
  ConflictAttribution fold{report.config,
                           AttributionOptions{.window = options.attribution_window}};
  sim::EventRecorder recorder{
      mem, nullptr,
      sim::sink_capacity(report.streams.size(), horizon > 0 ? horizon : watchdog.max_cycles)};
  recorder.buffer().set_chunk_sink(
      [&fold](std::span<const sim::PackedEvent> events) { fold.observe(events); });

  const sim::GuardedRun run = sim::drive(mem, watchdog, {.horizon = horizon});

  recorder.buffer().flush();
  fold.finalize(mem.now(), mem.port_count());
  if (options.attribution) report.attribution = fold.to_json();
  report.status = to_string(run.status);
  report.status_detail = run.detail;
  report.cycles = run.result.cycles;
  report.ports = run.result.ports;
  report.conflicts = run.result.conflicts;
  report.window_bandwidth = run.result.bandwidth();
  report.bank_grants = fold.bank_grants();
  report.bank_utilization = mem.bank_utilization();
  report.hottest_bank = mem.hottest_bank();
  fold.registry().gauge("bank_utilization").set(report.bank_utilization);
  fold.registry().gauge("hottest_bank").set(static_cast<double>(report.hottest_bank));
  report.metrics = fold.metrics_json();
  report.perf.cycles_simulated += mem.now();
  return run.status;
}

/// True for all-infinite streams; throws on a finite/infinite mix.
bool all_infinite(const std::vector<sim::StreamConfig>& streams, const char* who) {
  std::size_t infinite = 0;
  for (const auto& s : streams) {
    if (s.length == sim::kInfiniteLength) ++infinite;
  }
  if (infinite != 0 && infinite != streams.size()) {
    throw Error{ErrorCode::config_invalid,
                std::string{who} + ": streams must be all finite or all infinite"};
  }
  return infinite != 0;
}

}  // namespace

RunReport report_run(const sim::MemoryConfig& config,
                     const std::vector<sim::StreamConfig>& streams,
                     const ReportOptions& options) {
  const bool is_steady = all_infinite(streams, "report_run");
  RunReport report;
  report.config = config;
  report.streams = streams;
  report.kind = is_steady ? "steady_state" : "finite_run";

  const Stopwatch wall;
  i64 window = options.cycles;
  if (is_steady) {
    const sim::SteadyState ss = sim::find_steady_state(config, streams, options.max_cycles);
    report.perf.cycles_simulated = ss.cycles_simulated;
    if (window <= 0) window = ss.transient_cycles + ss.period;
    SteadyStateReport steady;
    steady.b_eff = ss.bandwidth;
    steady.per_port = ss.per_port;
    steady.transient_cycles = ss.transient_cycles;
    steady.period = ss.period;
    steady.grants_in_period = ss.grants_in_period;
    steady.conflicts_in_period = ss.conflicts_in_period;
    report.steady_state = std::move(steady);
  }

  // A window needs no budget; a finite run to completion keeps max_cycles.
  const sim::Watchdog budget{.max_cycles = window > 0 ? window : options.max_cycles,
                             .livelock_factor = 0};
  if (observe_run(report, options, budget, window > 0 ? window : -1) !=
      sim::RunStatus::completed) {
    throw Error{ErrorCode::deadline_exceeded,
                "report_run: finite workload did not finish within max_cycles"};
  }
  report.perf.wall_seconds = wall.seconds();
  return report;
}

RunReport report_run_guarded(const sim::MemoryConfig& config,
                             const std::vector<sim::StreamConfig>& streams,
                             const sim::FaultPlan& plan, const ReportOptions& options,
                             const sim::Watchdog& watchdog) {
  if (all_infinite(streams, "report_run_guarded") && options.cycles <= 0) {
    throw Error{ErrorCode::config_invalid,
                "report_run_guarded: infinite streams require an explicit cycles horizon "
                "(steady-state detection is unsound while a fault plan is active)"};
  }
  RunReport report;
  report.kind = "guarded_run";
  report.config = config;
  report.streams = streams;
  report.fault_plan = plan;

  const Stopwatch wall;
  observe_run(report, options, watchdog, options.cycles > 0 ? options.cycles : -1);
  report.perf.wall_seconds = wall.seconds();
  return report;
}

}  // namespace vpmem::obs
