// vpmem_cli — command-line front end to the library.  One grammar table
// (kOptions, kSlotFloors, kCommands) drives parsing, validation, dispatch
// and the usage text; run it with no arguments for every subcommand's options.
// Exit codes: 0 success; 1 failure (including fuzz disagreements); 2 usage
// (unknown subcommand or option, missing value, wrong positional count);
// 3 config_invalid (also any malformed or out-of-range number);
// 4 fault_plan_invalid; 5 deadline_exceeded; 6 livelock; 7 interrupted by
// SIGINT/SIGTERM (partial results flushed); 8 sweep campaign degraded.  With
// --json every exit but 2 leaves a vpmem.cli/1 (report: vpmem.run_report/1).
#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "vpmem/vpmem.hpp"

namespace {

using namespace vpmem;
using u64 = std::uint64_t;

/// flag: no value; integer: in [lo, hi], base 10 (any base, e.g. 0x.., when
/// `base` is 0); text: any token; range: "A:B" (or "A" = A:A), both ends
/// in [lo, hi] and A <= B.
enum class Kind { flag, integer, text, range };

struct Option {
  std::string_view name;
  Kind kind;
  const char* meta = "";  ///< value placeholder in usage
  u64 lo = 0;
  u64 hi = std::numeric_limits<i64>::max();
  int base = 10;
};

/// Every option, once.  --sections 0 means as many sections as banks;
/// --length, --cycles, --window and --max-cycles 0 mean the default.
constexpr auto kOptions = std::to_array<Option>({
    {"--json", Kind::text, "file"},          {"--same-cpu", Kind::flag},
    {"--sections", Kind::integer, "N"},      {"--cyclic-priority", Kind::flag},
    {"--consecutive", Kind::flag},           {"--dedicated", Kind::flag},
    {"--length", Kind::integer, "N"},        {"--cycles", Kind::integer, "N"},
    {"--window", Kind::integer, "N"},        {"--no-attribution", Kind::flag},
    {"--out", Kind::text, "file"},           {"--fault", Kind::text, "name"},
    {"--fault-plans", Kind::flag},           {"--no-shrink", Kind::flag},
    {"--replay", Kind::text, "LINE"},        {"--plan", Kind::text, "file"},
    {"--inline", Kind::text, "SPEC"},        {"--policy", Kind::text, "stall|remap_spare"},
    {"--max-cycles", Kind::integer, "N"},    {"--d1", Kind::range, "A:B"},
    {"--d2", Kind::range, "A:B"},            {"--journal", Kind::text, "file"},
    {"--resume", Kind::flag},                {"--sandbox", Kind::flag},
    {"--retries", Kind::integer, "N", 0, 1000}, {"--jobs", Kind::integer, "N", 1, 1024},
    {"--test-crash", Kind::text, "ID"},      {"--throttle-ms", Kind::integer, "N", 0, 3'600'000},
    {"--seed", Kind::integer, "N", 0, std::numeric_limits<u64>::max(), 0},
});

/// Positional slots with a floor above 0 (every other slot is an integer
/// in [0, INT64_MAX]); kWord marks the slot that takes a name.
constexpr i64 kWord = -1;
constexpr std::pair<std::string_view, i64> kSlotFloors[] = {
    {"m", 1}, {"nc", 1}, {"n", 1}, {"inc", 1}, {"arrays", 1}, {"min_elements", 1}, {"name", kWord}};

/// Index of option `name` in kOptions; kOptions' size when there is none.
constexpr std::size_t option_index(std::string_view name) {
  return static_cast<std::size_t>(std::ranges::find(kOptions, name, &Option::name) -
                                  kOptions.begin());
}

/// An option name checked against kOptions at compile time; implicit, so
/// handlers read options by their "--name".
struct Opt {
  std::size_t index;
  consteval Opt(const char* name) : index{option_index(name)} {
    if (index == std::size(kOptions)) throw "not an option in kOptions";
  }
};

/// A parsed command line: one number per positional slot (0 in the name
/// slot, whose token is `word`) and every option's value.
struct Args {
  struct Value {
    bool given = false;
    u64 lo = 0;        ///< the integer, or the range start
    u64 hi = 0;        ///< the range end
    std::string text;  ///< the raw token
  };
  std::string_view command;
  std::vector<i64> positional;
  std::string word;
  std::array<Value, std::size(kOptions)> values;
  std::string bad_value;  ///< first malformed or out-of-range number

  [[nodiscard]] bool flag(Opt o) const { return values[o.index].given; }
  [[nodiscard]] i64 num(Opt o, i64 fallback = 0) const {
    return flag(o) ? static_cast<i64>(values[o.index].lo) : fallback;
  }
  [[nodiscard]] std::pair<i64, i64> range(Opt o) const {
    return {static_cast<i64>(values[o.index].lo), static_cast<i64>(values[o.index].hi)};
  }
  [[nodiscard]] const std::string& text(Opt o) const { return values[o.index].text; }
  [[nodiscard]] const std::string& json_path() const { return text("--json"); }
};

/// Strict integer parsing: the whole token must be an unsigned integer in
/// [lo, hi] (no sign, no padding, no trailing junk, no silent 0 for "abc",
/// no wrap).  Records the first violation in args.bad_value; main() then
/// rejects the run as config_invalid.
bool parse_int(Args& args, std::string_view what, const std::string& token, u64 lo, u64 hi,
               u64& out, int base = 10) {
  char* end = nullptr;
  errno = 0;
  const bool bare = !token.empty() && token[0] != '-' &&
                    std::isspace(static_cast<unsigned char>(token[0])) == 0;
  const u64 value = bare ? std::strtoull(token.c_str(), &end, base) : 0;
  if (bare && errno != ERANGE && end == token.c_str() + token.size() && value >= lo &&
      value <= hi) {
    out = value;
    return true;
  }
  if (args.bad_value.empty()) {
    args.bad_value = std::string{what} + ": expected an integer in [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "], got '" + token + "'";
  }
  return false;
}

/// a * b and a + b for sizes derived from arguments: a result outside i64
/// is config_invalid, never a wrapped value.
i64 checked_mul(i64 a, i64 b, std::string_view what) {
  i64 out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    throw Error{ErrorCode::config_invalid, std::string{what} + " overflows a 64-bit integer"};
  }
  return out;
}

i64 checked_add(i64 a, i64 b, std::string_view what) {
  i64 out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    throw Error{ErrorCode::config_invalid, std::string{what} + " overflows a 64-bit integer"};
  }
  return out;
}

sim::MemoryConfig config_from(const Args& args, i64 m, i64 nc) {
  return sim::MemoryConfig{
      .banks = m,
      .sections = args.num("--sections") > 0 ? args.num("--sections") : m,
      .bank_cycle = nc,
      .mapping = args.flag("--consecutive") ? sim::SectionMapping::consecutive
                                            : sim::SectionMapping::cyclic,
      .priority = args.flag("--cyclic-priority") ? sim::PriorityRule::cyclic
                                                 : sim::PriorityRule::fixed};
}

/// Human-readable output stream.  With `--json -` the JSON document owns
/// stdout, so the human summary moves to stderr and stdout stays parseable.
std::ostream& human(const Args& args) {
  return args.json_path() == "-" ? std::cerr : std::cout;
}

/// Write `doc` to args.json_path() when set ('-' = stdout).  Returns false
/// (and reports) on I/O failure.
bool maybe_write_json(const Args& args, const Json& doc) {
  if (args.json_path().empty()) return true;
  std::ofstream file;
  if (args.json_path() != "-") file.open(args.json_path());
  std::ostream& out = args.json_path() == "-" ? std::cout : file;
  if (!out) {
    std::cerr << "error: cannot open '" << args.json_path() << "' for writing\n";
    return false;
  }
  doc.dump(out, 2);
  out << '\n';
  return true;
}

/// Envelope shared by the non-`report` subcommands: the command name plus
/// its result payload, under the "vpmem.cli/1" schema.
Json cli_envelope(const std::string& command) {
  Json doc = Json::object();
  doc["schema"] = "vpmem.cli/1";
  doc["command"] = command;
  return doc;
}

Json json_of_ports(const std::vector<sim::PortStats>& ports) {
  Json out = Json::array();
  for (const auto& p : ports) out.push_back(obs::json_of(p));
  return out;
}

int cmd_single(const Args& args, Json& doc) {
  const auto [m, nc, d] = std::tuple{args.positional[0], args.positional[1], args.positional[2]};
  const core::SingleStreamReport r = core::analyze_single(config_from(args, m, nc), d);
  human(args) << "m=" << m << " nc=" << nc << " d=" << d << ": return number "
              << r.return_number << ", predicted b_eff " << r.predicted.str() << ", simulated "
              << r.simulated.str() << (r.consistent() ? "" : "  [MISMATCH]") << '\n';
  doc["m"] = m;
  doc["nc"] = nc;
  doc["d"] = d;
  doc["return_number"] = r.return_number;
  doc["predicted_b_eff"] = obs::json_of(r.predicted);
  doc["simulated_b_eff"] = obs::json_of(r.simulated);
  doc["consistent"] = r.consistent();
  if (!args.json_path().empty()) {
    doc["report"] = obs::report_run(config_from(args, m, nc),
                                    {sim::StreamConfig{.start_bank = 0, .distance = d}})
                        .to_json();
  }
  return 0;
}

int cmd_pair(const Args& args, Json& doc) {
  const auto cfg = config_from(args, args.positional[0], args.positional[1]);
  const core::PairReport r =
      core::analyze_pair(cfg, args.positional[2], args.positional[3], args.flag("--same-cpu"));
  const sim::OffsetSweep& sweep = r.sweep;  // run once, for the result and the telemetry
  human(args) << r.summary() << "\nby offset:";
  for (std::size_t b2 = 0; b2 < sweep.by_offset.size(); ++b2) {
    human(args) << ' ' << b2 << ':' << sweep.by_offset[b2].str();
  }
  human(args) << '\n';
  std::cerr << "sweep telemetry: " << sweep.by_offset.size() << " offsets, "
            << sweep.cycles_simulated << " simulated cycles in " << sweep.wall_seconds
            << " s (" << sweep.cycles_per_second() << " cycles/s)\n";
  doc["m"] = r.m;
  doc["nc"] = r.nc;
  doc["d1"] = r.d1;
  doc["d2"] = r.d2;
  doc["same_cpu"] = args.flag("--same-cpu");
  doc["classification"] = analytic::to_string(r.prediction.cls);
  doc["predicted_b_eff"] =
      r.prediction.bandwidth ? obs::json_of(*r.prediction.bandwidth) : Json{nullptr};
  doc["sim_min"] = obs::json_of(sweep.min_bandwidth);
  doc["sim_max"] = obs::json_of(sweep.max_bandwidth);
  Json by_offset = Json::array();
  for (const auto& bw : sweep.by_offset) by_offset.push_back(obs::json_of(bw));
  doc["by_offset"] = std::move(by_offset);
  Json perf = Json::object();
  perf["points"] = sweep.by_offset.size();
  perf["wall_seconds"] = sweep.wall_seconds;
  perf["simulated_cycles"] = sweep.cycles_simulated;
  perf["cycles_per_second"] = sweep.cycles_per_second();
  doc["sweep_perf"] = std::move(perf);
  return 0;
}

int cmd_render(const Args& args, Json& doc) {
  const std::vector<i64>& p = args.positional;
  const auto cfg = config_from(args, p[0], p[1]);
  const auto streams = sim::two_streams(p[4], p[2], p[5], p[3], args.flag("--same-cpu"));
  const i64 cycles = p.size() > 6 ? p[6] : checked_mul(3, p[0], "render: the default window 3 * m");
  const std::string diagram = trace::render_run(cfg, streams, cycles, cfg.sections != p[0]);
  human(args) << diagram;
  const auto ss = sim::find_steady_state(cfg, streams);
  human(args) << "steady-state b_eff = " << ss.bandwidth.str() << '\n';
  doc["diagram"] = diagram;
  if (!args.json_path().empty()) doc["report"] = obs::report_run(cfg, streams).to_json();
  return 0;
}

/// The report/trace/faults positional convention: <m> <nc> <d1> [d2 [b1 b2]],
/// one stream or two, with --length making the streams finite.
std::vector<sim::StreamConfig> report_streams(const Args& args) {
  const std::vector<i64>& p = args.positional;
  std::vector<sim::StreamConfig> streams =
      p.size() == 3 ? std::vector{sim::StreamConfig{.start_bank = 0, .distance = p[2]}}
                    : sim::two_streams(p.size() == 6 ? p[4] : 0, p[2], p.size() == 6 ? p[5] : 0,
                                       p[3], args.flag("--same-cpu"));
  if (args.num("--length") > 0) {
    for (auto& s : streams) s.length = args.num("--length");
  }
  return streams;
}

int cmd_report(const Args& args, Json& doc) {
  const auto cfg = config_from(args, args.positional[0], args.positional[1]);
  const std::vector<sim::StreamConfig> streams = report_streams(args);
  obs::ReportOptions options;
  options.cycles = args.num("--cycles");
  const obs::RunReport report = obs::report_run(cfg, streams, options);
  std::cerr << "report: " << report.kind << ", " << report.perf.cycles_simulated
            << " simulated cycles in " << report.perf.wall_seconds << " s ("
            << report.perf.cycles_per_second() << " cycles/s)\n";
  if (args.json_path().empty()) {
    report.write_json(std::cout);
  } else {
    doc = report.to_json();
  }
  return 0;
}

/// `triad` (the Section IV kernel, plus the other CPU's b_eff) and
/// `kernel <name>`: one kernel run on the X-MP model.
int cmd_xmp(const Args& args, Json& doc) {
  const bool triad = args.command == "triad";
  const std::string name = triad ? "triad" : args.word;
  const auto& kernels = xmp::all_kernels();
  const auto spec = std::ranges::find_if(kernels, [&](const auto& k) { return k.name == name; });
  if (spec == kernels.end()) {
    std::cerr << "unknown kernel '" << name << "'; choose from:";
    for (const auto& k : kernels) std::cerr << ' ' << k.name;
    std::cerr << '\n';
    return 2;
  }
  xmp::TriadSetup setup;
  setup.n = args.positional[triad ? 0 : 1];  // kernel's slot 0 is the name
  setup.inc = args.positional[triad ? 1 : 2];
  const bool dedicated = args.flag("--dedicated");
  const xmp::TriadResult r = xmp::run_kernel(xmp::XmpConfig{}, *spec, setup, !dedicated);
  human(args) << name << " n=" << setup.n << " inc=" << setup.inc
              << (dedicated ? " (dedicated)" : " (contended)") << ": " << r.cycles
              << " cycles, conflicts bank=" << r.conflicts.bank
              << " section=" << r.conflicts.section << " simult=" << r.conflicts.simultaneous;
  if (triad && !dedicated) human(args) << ", other CPU b_eff " << cell(r.background_goodput(), 3);
  human(args) << '\n';
  if (!triad) doc["kernel"] = name;
  Json& out = doc["result"] = Json::object();
  out["n"] = setup.n;
  out["inc"] = setup.inc;
  out["idim"] = setup.idim;
  out["dedicated"] = dedicated;
  out["cycles"] = r.cycles;
  out["cycles_per_element"] = r.cycles_per_element(setup.n);
  out["conflicts"] = obs::json_of(r.conflicts);
  out["background_goodput"] = r.background_goodput();
  out["ports"] = json_of_ports(r.triad_ports);
  out["background_ports"] = json_of_ports(r.background_ports);
  return 0;
}

int cmd_diagnose(const Args& args, Json& doc) {
  const auto cfg = config_from(args, args.positional[0], args.positional[1]);
  obs::SweepTelemetry telemetry;
  const core::RegimeSweep sweep = core::sweep_regimes(
      cfg, args.positional[2], args.positional[3], args.flag("--same-cpu"), &telemetry);
  for (std::size_t b2 = 0; b2 < sweep.by_offset.size(); ++b2) {
    human(args) << "b2=" << b2 << ": " << sweep.by_offset[b2].summary() << '\n';
  }
  std::cerr << "sweep telemetry: " << telemetry.summary() << '\n';
  Json by_offset = Json::array();
  for (const auto& d : sweep.by_offset) {
    Json entry = Json::object();
    entry["regime"] = core::to_string(d.regime);
    entry["b_eff"] = obs::json_of(d.bandwidth);
    entry["conflicts_in_period"] = obs::json_of(d.conflicts_in_period);
    entry["period"] = d.period;
    entry["transient_cycles"] = d.transient_cycles;
    by_offset.push_back(std::move(entry));
  }
  doc["by_offset"] = std::move(by_offset);
  doc["sweep_perf"] = telemetry.to_json();
  return 0;
}

int cmd_idim(const Args& args, Json& doc) {
  const std::vector<i64>& p = args.positional;
  const auto cfg = config_from(args, p[0], p[1]);
  const auto sweep = core::sweep_array_spacing(cfg, p[2], p[3], args.flag("--same-cpu"));
  const i64 idim = core::idim_for(sweep, cfg.banks, p[4]);
  human(args) << "recommended IDIM " << idim << " (spacing " << mod_norm(idim, cfg.banks)
              << " mod " << cfg.banks << ", group b_eff " << sweep.best_bandwidth.str()
              << "; worst spacing " << sweep.worst_spacing << " -> "
              << sweep.worst_bandwidth.str() << ")\n";
  doc["recommended_idim"] = idim;
  doc["spacing"] = mod_norm(idim, cfg.banks);
  doc["best_b_eff"] = obs::json_of(sweep.best_bandwidth);
  doc["worst_spacing"] = sweep.worst_spacing;
  doc["worst_b_eff"] = obs::json_of(sweep.worst_bandwidth);
  return 0;
}

/// Full run context of a failing fuzz case, attached to the JSON record
/// so the repro line comes with the complete RunReport of the offending
/// configuration.  Mixed finite/infinite workloads have no report shape;
/// those carry an "error" member instead.
Json failure_report(const check::FuzzFailure& failure) {
  Json entry = Json::object();
  entry["iteration"] = failure.iteration;
  entry["check"] = failure.check;
  entry["message"] = failure.message;
  entry["repro"] = failure.repro;
  entry["shrunk_repro"] = failure.shrunk_repro;
  try {
    const check::FuzzCase c =
        check::parse_repro(failure.shrunk_repro.empty() ? failure.repro : failure.shrunk_repro);
    entry["report"] = obs::report_run(c.config, c.streams, {.cycles = c.cycles}).to_json();
  } catch (const std::exception& e) {
    entry["report_error"] = std::string{e.what()};
  }
  return entry;
}

int replay_one(const Args& args, Json& doc) {
  const check::FuzzCase c = check::parse_repro(args.text("--replay"));
  const check::CaseResult result =
      check::check_case(c, {}, /*run_invariants=*/c.fault == check::FaultKind::none);
  human(args) << "replay: " << check::encode_repro(c) << '\n';
  for (const auto& f : result.failures) {
    human(args) << "  FAIL [" << f.check << "] " << f.message << '\n';
  }
  if (result.ok()) {
    human(args) << "  all " << result.checks_run << " checks passed ("
                << result.events_compared << " events compared)\n";
  }
  doc["replay"] = args.text("--replay");
  doc["ok"] = result.ok();
  doc["checks_run"] = result.checks_run;
  doc["events_compared"] = result.events_compared;
  Json failures = Json::array();
  for (const auto& f : result.failures) {
    Json entry = Json::object();
    entry["check"] = f.check;
    entry["message"] = f.message;
    failures.push_back(std::move(entry));
  }
  doc["failures"] = std::move(failures);
  return result.ok() ? 0 : 1;
}

int cmd_fuzz(const Args& args, Json& doc) {
  if (!args.text("--replay").empty()) return replay_one(args, doc);

  check::FuzzOptions options;
  if (args.flag("--seed")) options.seed = static_cast<std::uint64_t>(args.num("--seed"));
  if (!args.positional.empty()) options.iterations = args.positional[0];
  if (args.num("--cycles") > 0) options.cycles = args.num("--cycles");
  if (!args.text("--fault").empty()) options.fault = check::fault_from_string(args.text("--fault"));
  options.fault_plans = args.flag("--fault-plans");
  options.shrink_failures = !args.flag("--no-shrink");
  options.jobs = static_cast<int>(args.num("--jobs", 1));
  exec::install_signal_handlers();
  options.cancel = &exec::process_cancel_token();

  const check::FuzzSummary summary = check::fuzz(options);
  human(args) << "fuzz: " << summary.iterations << " cases, " << summary.checks_run
              << " checks, " << summary.events_compared << " events compared (seed 0x"
              << std::hex << summary.seed << std::dec;
  if (options.fault != check::FaultKind::none) {
    human(args) << ", fault " << check::to_string(options.fault);
  }
  if (options.jobs > 1) human(args) << ", jobs " << options.jobs;
  human(args) << ")\n";
  if (summary.interrupted) {
    human(args) << "interrupted after " << summary.iterations << " of "
                << options.iterations << " cases; partial results follow\n";
  }
  for (const auto& f : summary.failures) {
    human(args) << "FAIL iteration " << f.iteration << " [" << f.check << "] " << f.message
                << "\n  replay:  " << f.repro << '\n';
    if (!f.shrunk_repro.empty()) human(args) << "  shrunk:  " << f.shrunk_repro << '\n';
  }
  if (summary.ok()) {
    human(args) << "no disagreements\n";
  } else {
    human(args) << summary.failures.size() << " failing case(s); re-run one with\n"
                << "  vpmem_cli fuzz --replay '<line>'\n";
  }
  doc["status"] = summary.interrupted ? "interrupted"
                  : summary.failures.empty() ? "ok" : "failed";
  doc["summary"] = summary.to_json();
  Json reports = Json::array();
  if (!args.json_path().empty()) {
    for (const auto& f : summary.failures) reports.push_back(failure_report(f));
  }
  doc["failure_reports"] = std::move(reports);
  if (summary.interrupted) return 7;
  return summary.failures.empty() ? 0 : 1;
}

/// The `faults` plan source: --plan (vpmem.fault_plan/1 JSON file) or
/// --inline (the compact FaultPlan::parse spec); --policy overrides.
sim::FaultPlan load_plan(const Args& args) {
  if (args.flag("--plan") && args.flag("--inline")) {
    throw Error{ErrorCode::fault_plan_invalid, "pass either --plan or --inline, not both"};
  }
  sim::FaultPlan plan;
  if (args.flag("--plan")) {
    std::ifstream in{args.text("--plan")};
    if (!in) {
      throw Error{ErrorCode::fault_plan_invalid,
                  "cannot open fault plan '" + args.text("--plan") + "'"};
    }
    std::ostringstream text;
    text << in.rdbuf();
    plan = sim::FaultPlan::from_json(Json::parse(text.str()));
  } else {
    plan = sim::FaultPlan::parse(args.text("--inline"));
  }
  if (args.flag("--policy")) plan.policy = sim::fault_policy_from_string(args.text("--policy"));
  return plan;
}

/// Re-simulate the guarded window and split it at fault-event cycles (the
/// aggregate RunReport has no time axis): one entry per half-open phase
/// with its grants, surviving banks and bandwidth.
Json fault_phases(const sim::MemoryConfig& cfg, const std::vector<sim::StreamConfig>& streams,
                  const sim::FaultPlan& plan, i64 cycles) {
  std::vector<i64> bounds{0};
  for (const auto& e : plan.events) {
    if (e.cycle > 0 && e.cycle < cycles && e.cycle != bounds.back()) bounds.push_back(e.cycle);
  }
  if (cycles > bounds.back()) bounds.push_back(cycles);
  Json phases = Json::array();
  sim::MemorySystem mem{cfg, streams, plan};
  i64 prev_grants = 0;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    // Step the first period so the events due at the boundary are applied,
    // then read the surviving-bank count the phase runs with.
    mem.run(1, /*stop_when_finished=*/false);
    const i64 online_banks = mem.surviving_banks();
    mem.run(bounds[i + 1] - bounds[i] - 1, /*stop_when_finished=*/false);
    i64 grants = 0;
    for (const auto& p : mem.all_stats()) grants += p.grants;
    Json phase = Json::object();
    phase["begin"] = bounds[i];
    phase["end"] = bounds[i + 1];
    phase["grants"] = grants - prev_grants;
    phase["online_banks"] = online_banks;
    phase["bandwidth"] =
        static_cast<double>(grants - prev_grants) / static_cast<double>(bounds[i + 1] - bounds[i]);
    phases.push_back(std::move(phase));
    prev_grants = grants;
  }
  return phases;
}

int cmd_faults(const Args& args, Json& doc) {
  const auto cfg = config_from(args, args.positional[0], args.positional[1]);
  const std::vector<sim::StreamConfig> streams = report_streams(args);
  const sim::FaultPlan plan = load_plan(args);

  obs::ReportOptions options;
  options.cycles = args.num("--cycles");
  if (streams.front().length == sim::kInfiniteLength && options.cycles <= 0) {
    // Automatic horizon: cover every fault event plus a healthy tail so
    // before/during/after phases are all visible.
    const i64 last = plan.events.empty() ? 0 : plan.events.back().cycle;
    options.cycles = last + 8 * cfg.banks * cfg.bank_cycle;
  }
  sim::Watchdog watchdog;
  if (args.num("--max-cycles") > 0) watchdog.max_cycles = args.num("--max-cycles");
  exec::install_signal_handlers();
  watchdog.cancel = exec::process_cancel_token().flag();

  const obs::RunReport report = obs::report_run_guarded(cfg, streams, plan, options, watchdog);
  const Json phases = fault_phases(cfg, streams, plan, report.cycles);

  human(args) << "faults: policy " << sim::to_string(plan.policy) << ", "
              << plan.events.size() << " event(s), status " << report.status;
  if (!report.status_detail.empty()) human(args) << " (" << report.status_detail << ")";
  human(args) << "\nwindow: " << report.cycles << " cycles, b_eff "
              << report.window_bandwidth << ", conflicts bank=" << report.conflicts.bank
              << " simult=" << report.conflicts.simultaneous
              << " section=" << report.conflicts.section
              << " fault=" << report.conflicts.fault << '\n';
  for (const Json& phase : phases.as_array()) {
    human(args) << "  cycles [" << phase.at("begin").as_int() << ", " << phase.at("end").as_int()
                << "): b_eff " << phase.at("bandwidth").as_double() << " ("
                << phase.at("online_banks").as_int() << "/" << cfg.banks << " banks online)\n";
  }

  doc["plan"] = plan.to_json();
  doc["status"] = report.status;
  doc["phases"] = phases;
  doc["report"] = report.to_json();
  if (report.status == "deadline_exceeded") return 5;
  if (report.status == "livelock") return 6;
  if (report.status == "interrupted") return 7;
  return 0;
}

/// The canonical config-hash preimage of one sweep point.  This string —
/// not the hash — is the contract: every field that changes the result
/// appears, in fixed order, so the same point hashes identically across
/// runs, machines and resumes.
std::string sweep_point_key(const sim::MemoryConfig& cfg, bool same_cpu, i64 d1, i64 d2) {
  std::ostringstream key;
  key << "vpmem.sweep/1 m=" << cfg.banks << " nc=" << cfg.bank_cycle << " s=" << cfg.sections
      << " map=" << (cfg.mapping == sim::SectionMapping::consecutive ? "consecutive" : "cyclic")
      << " pri=" << (cfg.priority == sim::PriorityRule::cyclic ? "cyclic" : "fixed")
      << " same_cpu=" << (same_cpu ? 1 : 0) << " d1=" << d1 << " d2=" << d2;
  return key.str();
}

/// Replay token for one sweep point: a complete single-point `sweep`
/// invocation, recorded on crash/quarantine.
std::string sweep_point_repro(const Args& args, i64 m, i64 nc, i64 d1, i64 d2) {
  std::ostringstream r;
  r << "sweep " << m << ' ' << nc << " --d1 " << d1 << ':' << d1 << " --d2 " << d2 << ':'
    << d2;
  if (args.flag("--same-cpu")) r << " --same-cpu";
  if (args.num("--sections") > 0) r << " --sections " << args.num("--sections");
  if (args.flag("--cyclic-priority")) r << " --cyclic-priority";
  if (args.flag("--consecutive")) r << " --consecutive";
  return r.str();
}

/// One sweep point: exact steady-state analysis of the (d1, d2) pair.
/// Deliberately free of wall-clock data — the payload must be a pure
/// function of the configuration so resumed campaigns reproduce the
/// uninterrupted results byte for byte (timing lives in the journal and
/// the campaign metrics instead).
Json sweep_point(const sim::MemoryConfig& cfg, bool same_cpu, i64 d1, i64 d2, bool crash,
                 i64 throttle_ms) {
  if (crash) std::raise(SIGSEGV);  // --test-crash: prove sandbox isolation
  if (throttle_ms > 0) {
    // Pacing knob for the kill-and-resume tests: real points finish in
    // microseconds, far too fast to SIGKILL a campaign mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(throttle_ms));
  }
  const auto streams = sim::two_streams(0, d1, 0, d2, same_cpu);
  const sim::SteadyState ss = sim::find_steady_state(cfg, streams);
  Json out = Json::object();
  out["d1"] = d1;
  out["d2"] = d2;
  out["b_eff"] = obs::json_of(ss.bandwidth);
  out["transient_cycles"] = ss.transient_cycles;
  out["period"] = ss.period;
  Json grants = Json::array();
  for (const i64 g : ss.grants_in_period) grants.push_back(g);
  out["grants_in_period"] = std::move(grants);
  out["conflicts_in_period"] = obs::json_of(ss.conflicts_in_period);
  return out;
}

/// The deterministic results document (schema vpmem.sweep_results/1)
/// written to --out: grid parameters plus one entry per point in input
/// order.  Free-text error detail and all timing stay out of it so the
/// kill-and-resume test can compare files byte for byte.
Json sweep_results_doc(const Args& args, const sim::MemoryConfig& cfg,
                       const exec::CampaignSummary& summary) {
  Json doc = Json::object();
  doc["schema"] = "vpmem.sweep_results/1";
  doc["config"] = obs::json_of(cfg);
  doc["same_cpu"] = args.flag("--same-cpu");
  Json points = Json::array();
  for (const auto& r : summary.results) {
    Json p = Json::object();
    p["id"] = r.id;
    p["status"] = exec::to_string(r.status);
    if (r.status == exec::JobStatus::ok) {
      p["result"] = r.result;
    } else {
      p["error_code"] = r.error_code;
      if (!r.repro.empty()) p["repro"] = r.repro;
    }
    points.push_back(std::move(p));
  }
  doc["points"] = std::move(points);
  return doc;
}

int cmd_sweep(const Args& args, Json& doc) {
  const auto [d1_lo, d1_hi] = args.range("--d1");
  const auto [d2_lo, d2_hi] = args.range("--d2");
  if (args.flag("--resume") && args.text("--journal").empty()) {
    std::cerr << "sweep: --resume needs --journal\n";
    return 2;
  }
  const auto [m, nc] = std::pair{args.positional[0], args.positional[1]};
  const auto cfg = config_from(args, m, nc);
  cfg.validate();  // one machine for every point: reject it before the campaign
  const bool same_cpu = args.flag("--same-cpu");
  const i64 throttle_ms = args.num("--throttle-ms");

  // Range ends are >= 0 and ordered, so only the + 1 and the product can
  // overflow; the loops count up to the sizes so no index steps past hi.
  const i64 d1_count = checked_add(d1_hi - d1_lo, 1, "sweep: the --d1 range size");
  const i64 d2_count = checked_add(d2_hi - d2_lo, 1, "sweep: the --d2 range size");
  const i64 points = checked_mul(d1_count, d2_count, "sweep: the grid size");
  std::vector<exec::JobSpec> jobs;
  if (static_cast<u64>(points) > jobs.max_size()) {
    throw Error{ErrorCode::config_invalid,
                "sweep: " + std::to_string(points) + " grid points exceed the job list's limit"};
  }
  jobs.reserve(static_cast<std::size_t>(points));
  for (i64 i = 0; i < d1_count; ++i) {
    for (i64 j = 0; j < d2_count; ++j) {
      const i64 d1 = d1_lo + i;
      const i64 d2 = d2_lo + j;
      exec::JobSpec job;
      job.id = "d1=" + std::to_string(d1) + "/d2=" + std::to_string(d2);
      job.hash = stable_hash(sweep_point_key(cfg, same_cpu, d1, d2));
      job.repro = sweep_point_repro(args, m, nc, d1, d2);
      const bool crash = job.id == args.text("--test-crash");
      job.run = [cfg, same_cpu, d1, d2, crash, throttle_ms] {
        return sweep_point(cfg, same_cpu, d1, d2, crash, throttle_ms);
      };
      jobs.push_back(std::move(job));
    }
  }

  exec::install_signal_handlers();
  exec::ExecutorOptions options;
  options.jobs = static_cast<int>(args.num("--jobs", 1));
  options.sandbox = args.flag("--sandbox");
  if (args.num("--retries") > 0) {
    options.retry.max_attempts = static_cast<int>(args.num("--retries"));
  }
  options.journal_path = args.text("--journal");
  options.resume = args.flag("--resume");
  options.cancel = &exec::process_cancel_token();

  const exec::CampaignSummary summary = exec::run_campaign(jobs, options);

  human(args) << "sweep: " << jobs.size() << " points (d1 " << d1_lo << ".." << d1_hi
              << " x d2 " << d2_lo << ".." << d2_hi << ", m=" << m << " nc=" << nc << ")";
  if (options.jobs > 1) human(args) << ", jobs " << options.jobs;
  if (options.sandbox) human(args) << ", sandboxed";
  human(args) << "\n  completed " << summary.completed << " (resumed " << summary.resumed
              << "), failed " << summary.failed << ", quarantined " << summary.quarantined
              << ", cancelled " << summary.cancelled << ", retries " << summary.retries
              << "\n  status " << summary.status
              << (summary.interrupted ? " (interrupted)" : "") << '\n';
  for (const auto& r : summary.results) {
    if (r.status != exec::JobStatus::failed && r.status != exec::JobStatus::quarantined) {
      continue;
    }
    human(args) << "  " << exec::to_string(r.status) << ' ' << r.id << " [" << r.error_code
                << "] " << r.error << "\n    repro: vpmem_cli " << r.repro << '\n';
  }

  if (!args.text("--out").empty()) {
    std::ofstream out{args.text("--out")};
    if (!out) throw std::runtime_error{"cannot open '" + args.text("--out") + "' for writing"};
    sweep_results_doc(args, cfg, summary).dump(out, 2);
    out << '\n';
  }
  doc["status"] = summary.interrupted ? "interrupted" : summary.status;
  doc["m"] = m;
  doc["nc"] = nc;
  Json grid = Json::object();
  grid["d1_lo"] = d1_lo;
  grid["d1_hi"] = d1_hi;
  grid["d2_lo"] = d2_lo;
  grid["d2_hi"] = d2_hi;
  doc["grid"] = std::move(grid);
  doc["campaign"] = summary.to_json();
  if (!args.text("--journal").empty()) doc["journal"] = args.text("--journal");
  if (summary.interrupted) return 7;
  return summary.ok() ? 0 : 8;
}

int cmd_trace(const Args& args, Json& doc) {
  const auto cfg = config_from(args, args.positional[0], args.positional[1]);
  const std::vector<sim::StreamConfig> streams = report_streams(args);

  i64 window = args.num("--cycles");
  if (streams.front().length == sim::kInfiniteLength && window <= 0) {
    // Same automatic window as `report`: the transient plus one full
    // steady-state period, so the trace shows startup and the cycle.
    const sim::SteadyState ss = sim::find_steady_state(cfg, streams);
    window = ss.transient_cycles + ss.period;
  }

  sim::MemorySystem mem{cfg, streams};
  obs::TracerOptions options;
  options.attribution = !args.flag("--no-attribution");
  if (args.num("--window") > 0) options.window = args.num("--window");
  obs::Tracer tracer{mem, options};
  // A window needs no budget; a finite run to completion gets 1e6 cycles.
  if (!sim::drive(mem, {.max_cycles = window > 0 ? window : 1'000'000, .livelock_factor = 0},
                  {.horizon = window > 0 ? window : -1})
           .ok()) {
    throw vpmem::Error{vpmem::ErrorCode::deadline_exceeded,
                       "trace: finite workload did not finish within 1000000 cycles; "
                       "pass --cycles"};
  }
  tracer.finish();

  const std::string path = args.text("--out").empty() ? "trace.json" : args.text("--out");
  tracer.save_chrome_trace(path);

  const sim::EventBuffer& buf = tracer.buffer();
  human(args) << "trace: " << mem.now() << " cycles, " << buf.recorded() << " events ("
              << buf.dropped() << " evicted) -> " << path
              << "\nload it at ui.perfetto.dev or chrome://tracing\n";
  if (const obs::ConflictAttribution* a = tracer.attribution()) {
    sim::ConflictTotals lost;
    for (std::size_t p = 0; p < a->port_count(); ++p) {
      const sim::ConflictTotals t = a->totals(p);
      lost.bank += t.bank;
      lost.simultaneous += t.simultaneous;
      lost.section += t.section;
    }
    human(args) << "attribution: " << a->total_grants() << " grants, lost cycles bank="
                << lost.bank << " simult=" << lost.simultaneous << " section=" << lost.section
                << "; " << a->episodes().size() << " barrier episode(s)";
    if (!a->episodes().empty()) {
      const obs::BarrierEpisode& ep = a->episodes().front();
      human(args) << ", first: port " << (ep.port + 1) << " onset " << ep.onset << " length "
                  << ep.length();
    }
    human(args) << '\n';
  }

  doc["trace_path"] = path;
  doc["trace_schema"] = obs::kTraceSchema;
  doc["cycles"] = mem.now();
  Json ev = Json::object();
  ev["recorded"] = buf.recorded();
  ev["retained"] = buf.size();
  ev["dropped"] = buf.dropped();
  doc["events"] = std::move(ev);
  doc["ports"] = json_of_ports(mem.all_stats());
  doc["attribution"] =
      tracer.attribution() != nullptr ? tracer.attribution()->to_json() : Json{nullptr};
  return 0;
}

/// One row per subcommand.  `run` prints the human summary, fills the
/// envelope main() writes to --json and returns the exit code.  `grammar` is
/// the usage after the name: `<slot>` required, `[slot ...]` optional
/// (nested for more), `--opt` required, `[--opt]` optional, `--a|--b` one of
/// the two.  Every row also takes --json; option values and slot ranges
/// come from kOptions/kSlotFloors.
struct Command {
  std::string_view name;
  int (*run)(const Args&, Json&);
  std::string grammar;
  const char* summary;
};

const std::string kMachine = " [--sections] [--cyclic-priority] [--consecutive]";
const std::string kTwoStreams = "<m> <nc> <d1> [d2 [b1 b2]]";

const Command kCommands[] = {
    {"single", cmd_single, "<m> <nc> <d>" + kMachine,
     "One-stream analysis: return number, predicted and simulated b_eff."},
    {"pair", cmd_pair, "<m> <nc> <d1> <d2> [--same-cpu]" + kMachine,
     "Two-stream classification plus the exact offset sweep."},
    {"render", cmd_render, "<m> <nc> <d1> <d2> <b1> <b2> [cycles] [--same-cpu]" + kMachine,
     "Draw the clock diagram in the paper's notation."},
    {"report", cmd_report, kTwoStreams + " [--length] [--cycles] [--same-cpu]" + kMachine,
     "Emit the full RunReport (vpmem.run_report/1) as JSON."},
    {"triad", cmd_xmp, "<n> <inc> [--dedicated]", "Run the Section IV triad on the X-MP model."},
    {"idim", cmd_idim, "<m> <nc> <stride> <arrays> <min_elements> [--same-cpu]" + kMachine,
     "Recommend a COMMON array extent (the IDIM question)."},
    {"diagnose", cmd_diagnose, "<m> <nc> <d1> <d2> [--same-cpu]" + kMachine,
     "Conflict-regime map over every relative start position."},
    {"kernel", cmd_xmp, "<name> <n> <inc> [--dedicated]",
     "Run copy/scale/sum/daxpy/triad/gather/scatter on the X-MP model."},
    {"fuzz", cmd_fuzz,
     "[iterations] [--seed] [--cycles] [--fault] [--fault-plans] [--no-shrink] [--replay] [--jobs]",
     "Differential fuzzing against the reference model and the theorems."},
    {"sweep", cmd_sweep,
     "<m> <nc> --d1 --d2 [--jobs] [--journal] [--resume] [--sandbox] [--retries] [--out]"
     " [--same-cpu]" + kMachine + " [--test-crash] [--throttle-ms]",
     "Journaled campaign over the (d1, d2) stride grid; exits 8 if degraded."},
    {"faults", cmd_faults,
     kTwoStreams + " --plan|--inline [--policy] [--length] [--cycles] [--max-cycles]"
     " [--same-cpu]" + kMachine,
     "Degraded-mode run under a timed fault plan, with per-phase b_eff."},
    {"trace", cmd_trace,
     kTwoStreams + " [--out] [--length] [--cycles] [--window] [--no-attribution]"
     " [--same-cpu]" + kMachine,
     "Write a Chrome/Perfetto trace (vpmem.trace/1) of the run."},
};

/// `c`'s usage line: its grammar with option values spelled out and
/// [--json file] appended, wrapped at 80 columns.
std::string usage_line(const Command& c) {
  std::string text = "  vpmem_cli " + std::string{c.name};
  std::size_t column = text.size();
  std::istringstream words{c.grammar + " [--json]"};
  for (std::string w; words >> w;) {
    if (const std::size_t dash = w.find("--"); dash != std::string::npos) {
      std::istringstream names{w.substr(dash, w.find(']') - dash)};
      std::string spelling;
      for (std::string name; std::getline(names, name, '|');) {
        const Option& o = kOptions.at(option_index(name));
        spelling += (spelling.empty() ? "" : " | ") + name +
                    (o.kind == Kind::flag ? "" : std::string{" "} + o.meta);
      }
      w = dash > 0                              ? '[' + spelling + ']'
          : w.find('|') == std::string::npos ? spelling
                                              : '(' + spelling + ')';
    }
    if (column + 1 + w.size() > 80) {
      text += "\n          ";
      column = 10;
    }
    text += ' ' + w;
    column += 1 + w.size();
  }
  return text;
}

/// The full usage: every subcommand's grammar and summary.
int usage() {
  std::cerr << "usage:\n";
  for (const Command& c : kCommands) std::cerr << usage_line(c) << "\n      " << c.summary << '\n';
  std::cerr << "--json <file> also writes vpmem.cli/1 (report: vpmem.run_report/1); '-' = stdout\n"
               "exit codes: 0 ok, 1 failure, 2 usage, 3 config_invalid, 4 fault_plan_invalid,\n"
               "  5 deadline_exceeded, 6 livelock, 7 interrupted, 8 sweep degraded\n";
  return 2;
}

/// Parse argv[2..] against `c`'s grammar.  Returns the usage error, or ""
/// when the command line fits; malformed numbers land in args.bad_value.
std::string parse(const Command& c, int argc, char** argv, Args& args) {
  std::vector<std::string> slots;
  std::vector<std::size_t> counts;                 // accepted positional counts
  std::vector<std::string> options{"--json"};      // accepted options
  std::vector<std::vector<std::string>> required;  // one of each group must be given
  std::istringstream words{c.grammar};
  for (std::string w; words >> w;) {
    const std::size_t skip = w.front() == '[' ? 1 : 0;
    const std::string bare = w.substr(skip, w.find(']') - skip);
    if (bare.starts_with("--")) {
      std::vector<std::string> group;
      std::istringstream names{bare};
      for (std::string name; std::getline(names, name, '|');) group.push_back(name);
      options.insert(options.end(), group.begin(), group.end());
      if (skip == 0) required.push_back(group);
    } else {
      if (skip == 1) counts.push_back(slots.size());
      slots.push_back(bare.front() == '<' ? bare.substr(1, bare.size() - 2) : bare);
    }
  }
  counts.push_back(slots.size());

  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (!token.starts_with("--")) {
      const std::size_t k = args.positional.size();
      args.positional.push_back(0);
      if (k >= slots.size()) continue;  // the count check below rejects it
      i64 floor = 0;
      for (const auto& [name, lo] : kSlotFloors) floor = name == slots[k] ? lo : floor;
      u64 value = 0;
      if (floor == kWord) {
        args.word = token;
      } else if (parse_int(args, slots[k], token, static_cast<u64>(floor),
                           std::numeric_limits<i64>::max(), value)) {
        args.positional.back() = static_cast<i64>(value);
      }
      continue;
    }
    if (std::ranges::find(options, token) == options.end()) {
      return std::string{c.name} + " takes no option " + token;
    }
    const Option& o = kOptions.at(option_index(token));
    Args::Value& v = args.values[option_index(token)];
    v.given = true;
    if (o.kind == Kind::flag) continue;
    if (++i >= argc) return token + " needs a value";
    v.text = argv[i];
    const std::size_t colon = o.kind == Kind::range ? v.text.find(':') : std::string::npos;
    if (o.kind != Kind::text && parse_int(args, token, v.text.substr(0, colon), o.lo, o.hi,
                                          v.lo, o.base)) {
      v.hi = v.lo;
      if (colon != std::string::npos &&
          parse_int(args, token, v.text.substr(colon + 1), o.lo, o.hi, v.hi) && v.lo > v.hi &&
          args.bad_value.empty()) {
        args.bad_value = token + ": expected A:B with A <= B, got '" + v.text + "'";
      }
    }
  }
  if (std::ranges::find(counts, args.positional.size()) == counts.end()) {
    return std::string{c.name} + " does not take " + std::to_string(args.positional.size()) +
           " positional argument(s)";
  }
  for (const auto& group : required) {
    if (std::ranges::none_of(group, [&](const std::string& name) {
          return args.values[option_index(name)].given;
        })) {
      return std::string{c.name} + " needs " + group.front() +
             (group.size() > 1 ? " or " + group.back() : "");
    }
  }
  return "";
}

/// Distinct exit codes for typed failures (see the file head).
int exit_code_of(vpmem::ErrorCode code) {
  switch (code) {
    case vpmem::ErrorCode::config_invalid: return 3;
    case vpmem::ErrorCode::fault_plan_invalid: return 4;
    case vpmem::ErrorCode::deadline_exceeded: return 5;
    case vpmem::ErrorCode::livelock: return 6;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto c = std::ranges::find_if(
      kCommands, [&](const Command& row) { return argc >= 2 && row.name == argv[1]; });
  if (c == std::end(kCommands)) return usage();
  Args args;
  args.command = c->name;
  const std::string misuse = parse(*c, argc, argv, args);
  if (!misuse.empty()) {
    std::cerr << "error: " << misuse << "\nusage:\n" << usage_line(*c) << '\n';
    return 2;
  }
  Json doc = cli_envelope(std::string{c->name});
  int rc = 0;
  try {
    if (!args.bad_value.empty()) throw Error{ErrorCode::config_invalid, args.bad_value};
    rc = c->run(args, doc);
  } catch (const std::exception& e) {
    const auto* typed = dynamic_cast<const vpmem::Error*>(&e);
    const std::string code = typed != nullptr ? to_string(typed->code()) : "error";
    std::cerr << (typed != nullptr ? "error (" + code + "): " : "error: ") << e.what() << '\n';
    // --json error envelope: even failed invocations leave a parseable record.
    doc = cli_envelope(std::string{c->name});
    doc["error"] = Json::object();
    doc["error"]["code"] = code;
    doc["error"]["message"] = e.what();
    (void)maybe_write_json(args, doc);
    return typed != nullptr ? exit_code_of(typed->code()) : 1;
  }
  if (rc == 2) std::cerr << "usage:\n" << usage_line(*c) << '\n';
  return rc == 2 || maybe_write_json(args, doc) ? rc : 1;
}
