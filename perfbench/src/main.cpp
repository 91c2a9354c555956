// vpbench: the repository benchmark program.
//
//   vpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--size full|tiny] [--golden <file>] [--work-dir <dir>]
//           [--commit <id>] [--source-digest <hex>]
//
// --trace 0 sets the workload up several times (setup_s is the median),
// then runs whole passes over its item set until --seconds have passed
// and reports the end-to-end metrics.  --trace 1 alternates untraced and
// traced passes for the same time and reports the per-layer metrics.
// Every pass checks its simulated outputs against the golden digests and
// its work counters against the first pass.  The last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 correct, 1 incorrect, 2 usage, 3 refused build.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"
#include "vpmem/util/json.hpp"
#include "workloads.hpp"

namespace vpbench {
namespace {

using vpmem::Json;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::full;
  std::string golden = "perfbench/golden/digests.txt";
  std::string work_dir = ".bench_build/perfbench-work";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Set-up batches timed per untraced run; setup_s is their median.
constexpr int kSetupBatches = 9;

int usage(const std::string& why) {
  std::cerr << "vpbench: " << why
            << "\nusage: vpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "               [--size full|tiny] [--golden <file>]\n"
               "               [--work-dir <dir>] [--commit <id>] [--source-digest <hex>]\n"
               "workloads:";
  for (const auto& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  return 2;
}

bool parse_args(int argc, char** argv, Options& options, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + arg;
      return false;
    }
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value, &used, 0);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value, &used);
        if (!(options.seconds > 0.0 && options.seconds <= 3600.0)) used = 0;
      } else if (arg == "--trace") {
        options.trace = value == "1";
        used = value == "0" || value == "1" ? value.size() : 0;
      } else if (arg == "--size") {
        options.size = value == "tiny" ? Size::tiny : Size::full;
        used = value == "tiny" || value == "full" ? value.size() : 0;
      } else if (arg == "--golden") {
        options.golden = value;
      } else if (arg == "--work-dir") {
        options.work_dir = value;
      } else if (arg == "--commit") {
        options.commit = value;
      } else if (arg == "--source-digest") {
        options.source_digest = value;
      } else {
        error = "unknown option " + arg;
        return false;
      }
      if (arg == "--seed" || arg == "--seconds" || arg == "--trace" || arg == "--size") {
        if (used != value.size()) throw std::invalid_argument{value};
      }
    } catch (const std::exception&) {
      error = "bad value '" + value + "' for " + arg;
      return false;
    }
  }
  if (options.workload.empty()) {
    error = "--workload is required";
    return false;
  }
  return true;
}

/// Timings from a debug or sanitizer build say nothing about Release.
std::string build_refusal() {
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG unset)";
#else
  if (std::string{VPBENCH_BUILD_TYPE} != "Release") {
    return std::string{"build type is '"} + VPBENCH_BUILD_TYPE + "', not Release";
  }
#if VPBENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "this is a sanitizer build";
#else
  return "";
#endif
#endif
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

Json run_record(const Options& options) {
  Json record = Json::object();
  record["schema"] = "vpbench.run_record/1";
  record["workload"] = options.workload;
  record["seed"] = static_cast<i64>(options.seed);
  record["seconds"] = options.seconds;
  record["trace"] = options.trace;
  record["size"] = options.size == Size::full ? "full" : "tiny";
  record["cpu_model"] = cpu_model();
  record["nproc"] = static_cast<i64>(std::thread::hardware_concurrency());
  record["compiler"] = VPBENCH_COMPILER;
  record["build_type"] = VPBENCH_BUILD_TYPE;
  record["commit"] = options.commit;
  record["source_digest"] = options.source_digest;
  return record;
}

// --- golden digests --------------------------------------------------------

std::string size_name(Size size) { return size == Size::full ? "full" : "tiny"; }

/// Golden file lines: "<size> <workload> <digest name> <hex>"; '#' comments.
/// A mismatch prints the digest it got, so an intended change of outputs
/// is recorded by replacing the line.
std::map<std::string, std::string> read_golden(const std::string& path) {
  std::map<std::string, std::string> golden;
  std::ifstream in{path};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    std::string size, workload, name, hex;
    if (fields >> size >> workload >> name >> hex) golden[size + ' ' + workload + ' ' + name] = hex;
  }
  return golden;
}

void check_golden(const Options& options, const std::map<std::string, std::string>& golden,
                  PassResult& pass) {
  for (const Digest& d : pass.digests) {
    const std::string key = size_name(options.size) + ' ' + options.workload + ' ' + d.name;
    const auto it = golden.find(key);
    if (it == golden.end()) {
      pass.fail(d.items, "no golden digest for '" + key + "' in " + options.golden + ": got " +
                             d.hex);
    } else if (it->second != d.hex) {
      pass.fail(d.items, "golden mismatch for '" + key + "': got " + d.hex + ", expected " +
                             it->second);
    }
  }
}

// --- statistics ------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// The highest percentile of a fixed ladder that leaves at least ten of
/// `samples` beyond it.
double tail_quantile(i64 samples) {
  double best = 0.5;
  for (const double q : {0.9, 0.95, 0.98, 0.99, 0.995, 0.998, 0.999, 0.9995, 0.9999}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) best = q;
  }
  return best;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Totals {
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<std::string> errors;
};

void absorb(Totals& totals, const PassResult& pass) {
  totals.attempted += pass.items;
  totals.failed += pass.failed;
  for (const auto& e : pass.errors) {
    if (totals.errors.size() < 20) totals.errors.push_back(e);
  }
}

/// Work counters must repeat exactly from pass to pass: a difference is a
/// nondeterminism bug, reported as an error.
void check_counters(const std::map<std::string, i64>& first, const PassResult& pass,
                    Totals& totals) {
  if (pass.counters != first) {
    totals.errors.push_back("work counters differ between passes of the same run");
  }
}

std::vector<Metric> end_to_end(const Workload& workload, const std::vector<double>& setup,
                               const std::vector<PassResult>& passes, const Totals& totals,
                               std::ostream& human) {
  // item_ms is indexed by item, and every pass runs every item (in a fresh
  // order), so item i's latency is the median of its passes and the time a
  // pass spends outside items (executor, JSON, digests) is the median over
  // passes.  Their sum is the pass time the rates are computed from: a host
  // hiccup during one pass moves neither the rates nor the tail.
  const PassResult& first = passes.front();
  std::vector<double> latency(first.item_ms.size());
  for (std::size_t i = 0; i < latency.size(); ++i) {
    std::vector<double> samples;
    for (const PassResult& pass : passes) samples.push_back(pass.item_ms.at(i));
    latency[i] = median(std::move(samples));
  }
  std::vector<double> outside_ms;
  for (const PassResult& pass : passes) {
    double items_ms = 0.0;
    for (const double ms : pass.item_ms) items_ms += ms;
    outside_ms.push_back(pass.wall_seconds * 1e3 - items_ms);
  }
  double items_ms = 0.0;
  for (const double ms : latency) items_ms += ms;
  const double pass_seconds = (items_ms + median(outside_ms)) / 1e3;
  human << "pass wall seconds:";
  for (const PassResult& pass : passes) human << ' ' << pass.wall_seconds;
  human << "; pass time from per-item medians " << pass_seconds << " s\n";
  const double q = tail_quantile(workload.items_per_pass());
  const double fail_ratio =
      ratio(static_cast<double>(totals.failed), static_cast<double>(totals.attempted));
  human << "item_tail_ms is p" << q * 100.0 << " over " << latency.size()
        << " item latencies (each the median of " << passes.size()
        << " passes); fail_ratio " << fail_ratio << " (" << totals.failed << "/"
        << totals.attempted << ")\n";
  return {
      {"setup_s", "s", median(setup)},
      {"items_per_s", "1/s", ratio(static_cast<double>(first.items), pass_seconds)},
      {"sim_cycles_per_s", "cycles/s", ratio(static_cast<double>(first.sim_cycles), pass_seconds)},
      {"item_p50_ms", "ms", quantile(latency, 0.5)},
      {"item_tail_ms", "ms", quantile(latency, q)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"ok_ratio", "ratio", 1.0 - fail_ratio},
  };
}

std::vector<Metric> per_layer(const std::vector<PassResult>& traced, const SpanRecorder& spans,
                              double traced_wall, double untraced_wall, std::ostream& human) {
  std::map<std::string, double> sum;
  for (const PassResult& pass : traced) {
    for (const auto& [name, value] : pass.layer) sum[name] += value;
  }
  const auto at = [&sum](const std::string& name) {
    const auto it = sum.find(name);
    return it == sum.end() ? 0.0 : it->second;
  };
  const std::map<std::string, i64>& counters = traced.front().counters;
  const auto count = [&counters](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double passes = static_cast<double>(traced.size());
  // Counters are per pass; the layer sums cover every traced pass.
  const auto per_pass_ns = [&](const std::string& seconds, const std::string& counter) {
    return ratio(at(seconds) * 1e9, count(counter) * passes);
  };
  const auto share = [&](Layer layer) { return ratio(spans.self_seconds(layer), traced_wall); };

  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    human << "  self time " << std::setw(17) << std::left << layer_name(layer) << std::right
          << std::fixed << std::setprecision(4) << spans.self_seconds(layer) << " s  ("
          << std::setprecision(1) << 100.0 * share(layer) << "% of traced wall)\n";
  }
  human.unsetf(std::ios::floatfield);
  human << std::setprecision(6);

  const double ss_seconds = at("sim.steady_state.s");
  return {
      {"sim.step.ns_per_cycle", "ns/cycle", per_pass_ns("sim.step.s", "sim.step.cycles")},
      {"sim.step.ns_per_port_cycle", "ns/port-cycle",
       per_pass_ns("sim.step.s", "sim.step.port_cycles")},
      {"sim.step.cycles", "count", count("sim.step.cycles")},
      {"sim.step.grants", "count", count("sim.step.grants")},
      {"sim.steady_state.ns_per_cycle", "ns/cycle",
       per_pass_ns("sim.steady_state.s", "sim.steady_state.cycles_simulated")},
      {"sim.steady_state.search_share", "ratio",
       ss_seconds > 0.0 ? 1.0 - at("sim.steady_state.replay_s") / ss_seconds : 0.0},
      {"sim.steady_state.cycles_simulated", "count", count("sim.steady_state.cycles_simulated")},
      {"sim.steady_state.time_share", "ratio", share(Layer::sim_steady_state)},
      {"sim.run.ns_per_cycle", "ns/cycle", per_pass_ns("sim.run.s", "sim.run.cycles")},
      {"sim.run.cycles", "count", count("sim.run.cycles")},
      {"obs.hook_ns_per_event", "ns/event",
       std::max(0.0, ratio((at("obs.traced_step.s") - at("obs.bare_step.s")) * 1e9,
                           count("obs.events") * passes))},
      {"obs.events", "count", count("obs.events")},
      {"obs.report_run_ms", "ms", ratio(at("obs.report_run.s") * 1e3, at("obs.report_run.calls"))},
      {"obs.time_share", "ratio", share(Layer::obs)},
      {"exec.overhead_us_per_job", "us/job",
       ratio((at("exec.campaign.s") - at("exec.closure_in_campaign.s")) * 1e6, at("exec.jobs"))},
      {"exec.dispatch_gap_us", "us", ratio(at("exec.gap.s") * 1e6, at("exec.gaps"))},
      {"exec.journal_us_per_job", "us/job",
       ratio((at("exec.cached_journaled.s") - at("exec.cached_plain.s")) * 1e6,
             at("exec.cached_jobs"))},
      {"exec.journal_bytes", "bytes", ratio(at("exec.journal_bytes"), passes)},
      {"exec.resume_ms", "ms", ratio(at("exec.resume.s") * 1e3, passes)},
      {"exec.retries", "count", count("exec.retries")},
      {"json.dump_ms", "ms", ratio(at("json.dump.s") * 1e3, passes)},
      {"json.parse_ms", "ms", ratio(at("json.parse.s") * 1e3, passes)},
      {"json.bytes", "bytes", count("json.bytes")},
      {"xmp.run_kernel.ns_per_cycle", "ns/cycle", per_pass_ns("xmp.s", "xmp.cycles")},
      {"xmp.cycles", "count", count("xmp.cycles")},
      {"xmp.conflicts", "count", count("xmp.conflicts")},
      {"check.case_us.healthy", "us",
       ratio(at("check.healthy.s") * 1e6, at("check.healthy.cases"))},
      {"check.case_us.fault_plan", "us",
       ratio(at("check.fault_plan.s") * 1e6, at("check.fault_plan.cases"))},
      {"check.reference_ns_per_cycle", "ns/cycle",
       per_pass_ns("check.reference.s", "check.reference.cycles")},
      {"check.events_compared", "count", count("check.events_compared")},
      {"check.checks_run", "count", count("check.checks_run")},
      {"bench.trace_overhead_ratio", "ratio", ratio(traced_wall, untraced_wall)},
      {"bench.layer_coverage", "ratio", ratio(spans.total_self_seconds(), traced_wall)},
  };
}

/// One line that run.py reads to compare counters across runs.
void print_counters(const PassResult& pass) {
  std::cout << "counters";
  for (const auto& [name, value] : pass.counters) std::cout << ' ' << name << '=' << value;
  std::cout << '\n';
}

Json result_line(bool correct, const Totals& totals, const std::vector<Metric>& metrics) {
  Json out = Json::object();
  out["correct"] = correct;
  out["attempted"] = totals.attempted;
  out["failed"] = totals.failed;
  Json values = Json::object();
  for (const Metric& m : metrics) {
    Json entry = Json::object();
    entry["value"] = std::isfinite(m.value) ? m.value : 0.0;
    entry["unit"] = m.unit;
    values[m.name] = std::move(entry);
  }
  out["metrics"] = std::move(values);
  return out;
}

int run(const Options& options) {
  const std::string work_dir = options.work_dir + "/" + options.workload;
  std::unique_ptr<Workload> workload = make_workload(options.workload, options.size, work_dir);
  const auto golden = read_golden(options.golden);
  std::cout << "run_record " << run_record(options).dump() << '\n';

  Totals totals;
  std::vector<Metric> metrics;
  SpanRecorder off{false};
  const auto timed_pass = [&](SpanRecorder& spans) {
    const auto t0 = Clock::now();
    PassResult pass = workload->run_pass(spans);
    pass.wall_seconds = seconds_between(t0, Clock::now());
    check_golden(options, golden, pass);
    absorb(totals, pass);
    return pass;
  };

  if (!options.trace) {
    // One untimed set-up warms code and heap; then each sample is the mean
    // of a batch of set-ups lasting >= 20 ms, so set-ups of microseconds
    // still give a steady median.
    workload->setup(options.seed);
    std::vector<double> setup;
    for (int i = 0; i < kSetupBatches; ++i) {
      const auto t0 = Clock::now();
      int count = 0;
      double elapsed = 0.0;
      do {
        workload->setup(options.seed);
        ++count;
        elapsed = seconds_between(t0, Clock::now());
      } while (elapsed < 0.02);
      setup.push_back(elapsed / count);
    }
    std::vector<PassResult> passes;
    const auto start = Clock::now();
    do {
      passes.push_back(timed_pass(off));
      check_counters(passes.front().counters, passes.back(), totals);
    } while (seconds_between(start, Clock::now()) < options.seconds);
    std::cout << "setup batches (s per set-up):";
    for (const double t : setup) std::cout << ' ' << t;
    std::cout << '\n';
    metrics = end_to_end(*workload, setup, passes, totals, std::cout);
    print_counters(passes.front());
  } else {
    workload->setup(options.seed);
    SpanRecorder spans{true};
    std::vector<PassResult> untraced, traced;
    double untraced_wall = 0.0, traced_wall = 0.0;
    const auto start = Clock::now();
    do {
      untraced.push_back(timed_pass(off));
      check_counters(untraced.front().counters, untraced.back(), totals);
      untraced_wall += untraced.back().wall_seconds;
      traced.push_back(timed_pass(spans));
      check_counters(traced.front().counters, traced.back(), totals);
      traced_wall += traced.back().wall_seconds;
    } while (seconds_between(start, Clock::now()) < options.seconds);
    std::cout << "traced " << traced.size() << " passes, " << traced_wall << " s (untraced "
              << untraced_wall << " s)\n";
    metrics = per_layer(traced, spans, traced_wall, untraced_wall, std::cout);
    print_counters(traced.front());
  }
  std::error_code ignored;
  std::filesystem::remove_all(work_dir, ignored);

  for (const Metric& m : metrics) {
    std::cout << "  " << std::setw(36) << std::left << m.name << std::right << ' '
              << std::setprecision(6) << m.value << ' ' << m.unit << '\n';
  }
  for (const std::string& e : totals.errors) std::cout << "error: " << e << '\n';
  const bool correct = totals.failed == 0 && totals.errors.empty();
  std::cout << result_line(correct, totals, metrics).dump() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vpbench

int main(int argc, char** argv) {
  // Fixed allocator thresholds.  By default glibc adapts its mmap threshold
  // to the history of frees and returns heap tops to the kernel, so the
  // cost of a large report depended on which items ran before it and
  // whole runs drifted by 30%.  Fixed, the heap stays warm as in any
  // long-running process.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  vpbench::Options options;
  std::string error;
  if (!vpbench::parse_args(argc, argv, options, error)) return vpbench::usage(error);
  const auto& names = vpbench::workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return vpbench::usage("unknown workload '" + options.workload + "'");
  }
  if (const std::string refusal = vpbench::build_refusal(); !refusal.empty()) {
    std::cerr << "vpbench: refusing to time this build: " << refusal << '\n';
    return 3;
  }
  try {
    return vpbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "vpbench: " << e.what() << '\n';
    return 1;
  }
}
