#include "workloads.hpp"

#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "vpmem/baseline/rng.hpp"
#include "vpmem/check/fuzzer.hpp"
#include "vpmem/check/reference_model.hpp"
#include "vpmem/check/replay.hpp"
#include "vpmem/exec/executor.hpp"
#include "vpmem/obs/report.hpp"
#include "vpmem/obs/tracer.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/sim/run.hpp"
#include "vpmem/sim/steady_state.hpp"
#include "vpmem/util/hash.hpp"
#include "vpmem/util/json.hpp"
#include "vpmem/xmp/kernels.hpp"

namespace vpbench {
namespace {

namespace check = vpmem::check;
namespace exec = vpmem::exec;
namespace obs = vpmem::obs;
namespace sim = vpmem::sim;
namespace xmp = vpmem::xmp;
using vpmem::Json;

/// Streaming 64-bit FNV-1a over the simulated outputs.
class Fnv {
 public:
  void update(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
    hash_ ^= 0xffU;  // record separator, so ("ab","c") != ("a","bc")
    hash_ *= 0x100000001b3ULL;
  }
  [[nodiscard]] std::string hex() const { return vpmem::hex64(hash_); }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The order a seed runs `n` items in: a Fisher-Yates shuffle driven by
/// SplitMix64.  order[k] is the canonical index of the k-th item run.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  vpmem::baseline::SplitMix64 rng{seed};
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next() % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

/// The item order of pass number `pass` of a run: every pass shuffles
/// afresh, so a per-item median over passes also averages out what an item
/// pays for the items before it (allocator and cache state).
std::vector<std::size_t> pass_order(std::size_t n, std::uint64_t seed, std::uint64_t salt,
                                    std::uint64_t pass) {
  return seeded_order(n, seed ^ salt ^ (pass * 0x9E3779B97F4A7C15ULL));
}

double ms_between(Clock::time_point a, Clock::time_point b) { return seconds_between(a, b) * 1e3; }

/// Traced runs only: replay `streams` on a bare MemorySystem for `cycles`
/// periods under a sim.step span.  Returns the host seconds of the
/// stepping itself (construction excluded).
double replay_steps(SpanRecorder& spans, PassResult& pass, const sim::MemoryConfig& config,
                    const std::vector<sim::StreamConfig>& streams, i64 cycles,
                    const sim::FaultPlan& plan = {}) {
  const Span span{spans, Layer::sim_step};
  sim::MemorySystem mem{config, streams, plan};
  const auto t0 = Clock::now();
  mem.run(cycles, /*stop_when_finished=*/false);
  const double seconds = seconds_between(t0, Clock::now());
  i64 grants = 0;
  for (const auto& p : mem.all_stats()) grants += p.grants;
  pass.layer["sim.step.s"] += seconds;
  pass.counters["sim.step.cycles"] += cycles;
  pass.counters["sim.step.port_cycles"] += cycles * static_cast<i64>(streams.size());
  pass.counters["sim.step.grants"] += grants;
  return seconds;
}

/// Dump `doc` and parse it back under json spans; a parse that does not
/// reproduce the text is a failure of the pass.
std::string json_round_trip(SpanRecorder& spans, PassResult& pass, const Json& doc, int indent,
                            i64 items) {
  std::string text;
  {
    Span span{spans, Layer::json};
    text = doc.dump(indent);
    pass.layer["json.dump.s"] += span.stop();
  }
  Span span{spans, Layer::json};
  const Json back = Json::parse(text);
  pass.layer["json.parse.s"] += span.stop();
  if (spans.enabled()) pass.counters["json.bytes"] += static_cast<i64>(text.size());
  if (back != doc) pass.fail(items, "JSON round trip changed a document");
  return text;
}

// ---------------------------------------------------------------------------
// stride_sweep: journaled (d1, d2) steady-state campaigns, as `vpmem_cli sweep`

struct GridSpec {
  const char* name;
  i64 banks;
  i64 bank_cycle;
  i64 d_max;  ///< d1, d2 in 1..d_max
};

class StrideSweep final : public Workload {
 public:
  StrideSweep(Size size, std::string work_dir) : work_dir_{std::move(work_dir)} {
    if (size == Size::full) {
      specs_ = {{"grid_m64_nc4", 64, 4, 64}, {"grid_m256_nc8", 256, 8, 32}};
    } else {
      specs_ = {{"grid_m64_nc4", 64, 4, 8}, {"grid_m256_nc8", 256, 8, 4}};
    }
  }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    pass_ = 0;
    std::filesystem::create_directories(work_dir_);
    grids_.clear();
    grids_.reserve(specs_.size());
    for (const GridSpec& spec : specs_) {
      Grid grid;
      grid.spec = spec;
      grid.config = sim::MemoryConfig{.banks = spec.banks,
                                      .sections = spec.banks,
                                      .bank_cycle = spec.bank_cycle,
                                      .mapping = sim::SectionMapping::cyclic,
                                      .priority = sim::PriorityRule::fixed};
      const auto points = static_cast<std::size_t>(spec.d_max * spec.d_max);
      const std::size_t index = grids_.size();
      grid.offset =
          grids_.empty() ? 0 : grids_.back().offset + grids_.back().canonical_jobs.size();
      for (std::size_t c = 0; c < points; ++c) {
        const i64 d1 = static_cast<i64>(c) / spec.d_max + 1;
        const i64 d2 = static_cast<i64>(c) % spec.d_max + 1;
        exec::JobSpec job;
        job.id = "d1=" + std::to_string(d1) + "/d2=" + std::to_string(d2);
        job.hash = vpmem::stable_hash(point_key(grid.config, d1, d2));
        job.repro = "sweep " + std::to_string(spec.banks) + ' ' +
                    std::to_string(spec.bank_cycle) + " --d1 " + std::to_string(d1) + ':' +
                    std::to_string(d1) + " --d2 " + std::to_string(d2) + ':' + std::to_string(d2);
        job.run = [this, index, c, d1, d2] { return point(grids_[index], c, d1, d2); };
        grid.canonical_jobs.push_back(std::move(job));
      }
      grid.journal = work_dir_ + "/" + spec.name + ".journal.jsonl";
      std::filesystem::remove(grid.journal);
      grids_.push_back(std::move(grid));
    }
  }

  PassResult run_pass(SpanRecorder& spans) override {
    PassResult pass;
    pass.item_ms.assign(static_cast<std::size_t>(items_per_pass()), 0.0);
    spans_ = &spans;
    current_ = &pass;
    for (Grid& grid : grids_) {
      grid.order = pass_order(grid.canonical_jobs.size(), seed_, vpmem::fnv1a64(grid.spec.name),
                              pass_);
      grid.jobs.clear();
      for (const std::size_t c : grid.order) grid.jobs.push_back(grid.canonical_jobs[c]);
      run_grid(grid, pass);
    }
    spans_ = nullptr;
    current_ = nullptr;
    ++pass_;
    return pass;
  }

  [[nodiscard]] i64 items_per_pass() const override {
    i64 n = 0;
    for (const GridSpec& spec : specs_) n += spec.d_max * spec.d_max;
    return n;
  }

 private:
  struct Grid {
    GridSpec spec{};
    sim::MemoryConfig config;
    std::size_t offset = 0;  ///< index of the grid's first point in PassResult::item_ms
    std::vector<exec::JobSpec> canonical_jobs;  ///< built once per setup
    std::vector<std::size_t> order;  ///< this pass: job k is canonical point order[k]
    std::vector<exec::JobSpec> jobs;  ///< this pass, in run order
    std::string journal;
  };

  /// The sweep CLI's config-hash preimage of one point.
  static std::string point_key(const sim::MemoryConfig& cfg, i64 d1, i64 d2) {
    return "vpmem.sweep/1 m=" + std::to_string(cfg.banks) + " nc=" +
           std::to_string(cfg.bank_cycle) + " s=" + std::to_string(cfg.sections) +
           " map=cyclic pri=fixed same_cpu=0 d1=" + std::to_string(d1) +
           " d2=" + std::to_string(d2);
  }

  /// One job: exact steady-state analysis of the (d1, d2) pair.
  Json point(const Grid& grid, std::size_t c, i64 d1, i64 d2) {
    SpanRecorder& spans = *spans_;
    PassResult& pass = *current_;
    const auto t0 = Clock::now();
    if (have_last_ && spans.enabled()) {
      pass.layer["exec.gap.s"] += seconds_between(last_end_, t0);
      pass.layer["exec.gaps"] += 1.0;
    }
    const auto streams = sim::two_streams(0, d1, 0, d2, /*same_cpu=*/false);
    sim::SteadyState ss;
    {
      Span span{spans, Layer::sim_steady_state};
      ss = sim::find_steady_state(grid.config, streams);
      pass.layer["sim.steady_state.s"] += span.stop();
    }
    Json out = Json::object();
    {
      const Span span{spans, Layer::json};
      out["d1"] = d1;
      out["d2"] = d2;
      out["b_eff"] = obs::json_of(ss.bandwidth);
      out["transient_cycles"] = ss.transient_cycles;
      out["period"] = ss.period;
      Json grants = Json::array();
      for (const i64 g : ss.grants_in_period) grants.push_back(g);
      out["grants_in_period"] = std::move(grants);
      out["conflicts_in_period"] = obs::json_of(ss.conflicts_in_period);
    }
    pass.counters["sim.steady_state.cycles_simulated"] += ss.cycles_simulated;
    pass.sim_cycles += ss.transient_cycles + ss.period;
    if (spans.enabled()) {
      pass.layer["sim.steady_state.replay_s"] +=
          replay_steps(spans, pass, grid.config, streams, ss.cycles_simulated);
    }
    const auto t1 = Clock::now();
    pass.item_ms[grid.offset + c] = ms_between(t0, t1);
    pass.layer["exec.closure.s"] += seconds_between(t0, t1);
    last_end_ = t1;
    have_last_ = true;
    return out;
  }

  /// The `vpmem_cli sweep --out` document, points in canonical order.
  static Json results_doc(const Grid& grid, const exec::CampaignSummary& summary) {
    std::vector<const exec::JobResult*> canonical(summary.results.size());
    for (std::size_t k = 0; k < summary.results.size(); ++k) {
      canonical[grid.order[k]] = &summary.results[k];
    }
    Json doc = Json::object();
    doc["schema"] = "vpmem.sweep_results/1";
    doc["config"] = obs::json_of(grid.config);
    doc["same_cpu"] = false;
    Json points = Json::array();
    for (const exec::JobResult* r : canonical) {
      Json p = Json::object();
      p["id"] = r->id;
      p["status"] = exec::to_string(r->status);
      if (r->status == exec::JobStatus::ok) {
        p["result"] = r->result;
      } else {
        p["error_code"] = r->error_code;
        if (!r->repro.empty()) p["repro"] = r->repro;
      }
      points.push_back(std::move(p));
    }
    doc["points"] = std::move(points);
    return doc;
  }

  void run_grid(const Grid& grid, PassResult& pass) {
    SpanRecorder& spans = *spans_;
    const auto n = static_cast<i64>(grid.jobs.size());
    std::filesystem::remove(grid.journal);
    have_last_ = false;
    exec::ExecutorOptions options;
    options.jobs = 1;
    options.journal_path = grid.journal;
    options.sleep_on_backoff = false;

    const double closures_before = pass.layer["exec.closure.s"];
    exec::CampaignSummary summary;
    {
      Span span{spans, Layer::exec};
      summary = exec::run_campaign(grid.jobs, options);
      pass.layer["exec.campaign.s"] += span.stop();
    }
    pass.items += n;
    pass.counters["exec.retries"] += summary.retries;
    for (const auto& r : summary.results) {
      if (r.status != exec::JobStatus::ok) {
        pass.fail(1, std::string{grid.spec.name} + " " + r.id + ": " +
                         exec::to_string(r.status) + " [" + r.error_code + "] " + r.error);
      }
    }
    Json doc;
    {
      const Span span{spans, Layer::json};
      doc = results_doc(grid, summary);
    }
    const std::string text = json_round_trip(spans, pass, doc, 2, n);
    Fnv digest;
    digest.update(text);
    pass.digests.push_back(Digest{grid.spec.name, digest.hex(), n});

    if (spans.enabled()) {
      pass.layer["exec.jobs"] += static_cast<double>(n);
      pass.layer["exec.journal_bytes"] +=
          static_cast<double>(std::filesystem::file_size(grid.journal));
      pass.layer["exec.closure_in_campaign.s"] += pass.layer["exec.closure.s"] - closures_before;
    }

    // Resume from the finished journal: every job settles from it and the
    // results document must come back byte for byte.
    exec::ExecutorOptions resume = options;
    resume.resume = true;
    exec::CampaignSummary resumed;
    {
      Span span{spans, Layer::exec};
      resumed = exec::run_campaign(grid.jobs, resume);
      pass.layer["exec.resume.s"] += span.stop();
    }
    std::string resumed_text;
    {
      const Span span{spans, Layer::json};
      resumed_text = results_doc(grid, resumed).dump(2);
    }
    if (resumed.resumed != n || resumed_text != text) {
      pass.fail(n, std::string{grid.spec.name} +
                       ": the resumed campaign did not reproduce the results document");
    }

    if (spans.enabled()) journal_cost(grid, summary, pass);
  }

  /// Journal cost on its own: the same jobs with their results cached, run
  /// once unjournaled and once journaled.
  void journal_cost(const Grid& grid, const exec::CampaignSummary& summary, PassResult& pass) {
    SpanRecorder& spans = *spans_;
    std::vector<exec::JobSpec> cached;
    cached.reserve(grid.jobs.size());
    for (std::size_t k = 0; k < grid.jobs.size(); ++k) {
      const Json* result = &summary.results[k].result;
      cached.push_back(exec::JobSpec{grid.jobs[k].id, grid.jobs[k].hash, grid.jobs[k].repro,
                                     [result] { return *result; }});
    }
    exec::ExecutorOptions plain;
    plain.jobs = 1;
    {
      Span span{spans, Layer::exec};
      (void)exec::run_campaign(cached, plain);
      pass.layer["exec.cached_plain.s"] += span.stop();
    }
    exec::ExecutorOptions journaled = plain;
    journaled.journal_path = work_dir_ + "/cached.journal.jsonl";
    std::filesystem::remove(journaled.journal_path);
    {
      Span span{spans, Layer::exec};
      (void)exec::run_campaign(cached, journaled);
      pass.layer["exec.cached_journaled.s"] += span.stop();
    }
    std::filesystem::remove(journaled.journal_path);
    pass.layer["exec.cached_jobs"] += static_cast<double>(cached.size());
  }

  std::vector<GridSpec> specs_;
  std::string work_dir_;
  std::vector<Grid> grids_;
  std::uint64_t seed_ = 0;
  std::uint64_t pass_ = 0;
  // Per-pass context the job closures write to (one worker, so no races).
  SpanRecorder* spans_ = nullptr;
  PassResult* current_ = nullptr;
  Clock::time_point last_end_{};
  bool have_last_ = false;
};

// ---------------------------------------------------------------------------
// large_m_report: obs::report_run with attribution at m = 256 .. 4096

struct ReportItem {
  std::string key;
  sim::MemoryConfig config;
  std::vector<sim::StreamConfig> streams;
};

sim::StreamConfig stream(i64 start_bank, i64 distance, i64 cpu,
                         i64 length = sim::kInfiniteLength) {
  sim::StreamConfig s;
  s.start_bank = start_bank;
  s.distance = distance;
  s.cpu = cpu;
  s.length = length;
  return s;
}

/// The canonical report configs: for every (m, nc), single streams and
/// two-stream pairs on one or two CPUs, with and without sections, some
/// finite.  Pairs whose cyclic state spans all m banks stop at m = 1024:
/// at m = 4096 one of them takes most of a second and 650 MB.
std::vector<ReportItem> report_items(Size size) {
  const std::vector<i64> banks = size == Size::full
                                     ? std::vector<i64>{256, 512, 1024, 2048, 4096}
                                     : std::vector<i64>{256, 512};
  std::vector<ReportItem> items;
  for (const i64 m : banks) {
    for (const i64 nc : {i64{4}, i64{8}}) {
      const sim::MemoryConfig flat{.banks = m, .sections = m, .bank_cycle = nc};
      const sim::MemoryConfig sectioned{.banks = m, .sections = nc, .bank_cycle = nc};
      const std::string tag = "m=" + std::to_string(m) + " nc=" + std::to_string(nc) + " ";
      const auto add = [&](const std::string& what, const sim::MemoryConfig& cfg,
                           std::vector<sim::StreamConfig> streams) {
        items.push_back(ReportItem{tag + what, cfg, std::move(streams)});
      };
      add("single d=1", flat, {stream(0, 1, 0)});
      add("single d=3 s=nc", sectioned, {stream(0, 3, 0)});
      add("single d=m/4+1", flat, {stream(1, m / 4 + 1, 0)});
      add("single d=m/2", sectioned, {stream(0, m / 2, 0)});
      add("pair cpus d=1,1 b2=m/2", flat, sim::two_streams(0, 1, m / 2, 1, false));
      add("pair cpus d=1,1 b2=1 s=nc", sectioned, sim::two_streams(0, 1, 1, 1, false));
      add("pair cpus d=m/8,m/4", flat, sim::two_streams(0, m / 8, 3, m / 4, false));
      add("pair one-cpu d=m/4,m/2 s=nc", sectioned,
          sim::two_streams(0, m / 4, 1, m / 2, true));
      if (m <= 1024) {
        add("pair cpus d=1,3", flat, sim::two_streams(0, 1, 0, 3, false));
        add("pair one-cpu d=1,2 s=nc", sectioned, sim::two_streams(0, 1, 1, 2, true));
      }
      add("finite single d=1 n=2m", flat, {stream(0, 1, 0, 2 * m)});
      add("finite pair cpus d=2,3 n=m", flat, {stream(0, 2, 0, m), stream(1, 3, 1, m)});
      add("finite pair one-cpu d=1,5 n=m s=nc", sectioned,
          {stream(0, 1, 0, m), stream(2, 5, 0, m)});
    }
  }
  return items;
}

class LargeMReport final : public Workload {
 public:
  explicit LargeMReport(Size size) : size_{size} {}

  void setup(std::uint64_t seed) override {
    items_ = report_items(size_);
    seed_ = seed;
    pass_ = 0;
  }

  PassResult run_pass(SpanRecorder& spans) override {
    PassResult pass;
    pass.item_ms.assign(items_.size(), 0.0);
    std::vector<std::string> item_digests(items_.size());
    for (const std::size_t c : pass_order(items_.size(), seed_, 0x4c41524745ULL, pass_++)) {
      item_digests[c] = run_item(spans, pass, c);
    }
    Fnv digest;
    for (const std::string& d : item_digests) digest.update(d);
    pass.digests.push_back(Digest{"reports", digest.hex(), pass.items});
    return pass;
  }

  [[nodiscard]] i64 items_per_pass() const override { return static_cast<i64>(items_.size()); }

 private:
  /// One report: run, serialize, dump, parse back; every tenth canonical
  /// config also exports a Chrome trace.  Returns the report's digest.
  std::string run_item(SpanRecorder& spans, PassResult& pass, std::size_t c) {
    const ReportItem& item = items_[c];
    const bool finite = item.streams.front().length != sim::kInfiniteLength;
    const auto t0 = Clock::now();
    ++pass.items;
    std::string hex;
    try {
      obs::RunReport report;
      {
        Span span{spans, Layer::obs};
        report = obs::report_run(item.config, item.streams);
        pass.layer["obs.report_run.s"] += span.stop();
      }
      Json doc;
      {
        const Span span{spans, Layer::obs};
        doc = report.to_json();
      }
      doc["perf"] = nullptr;  // wall-clock telemetry stays out of the digest
      const std::string text = json_round_trip(spans, pass, doc, -1, 1);
      Fnv digest;
      digest.update(item.key);
      digest.update(text);
      hex = digest.hex();
      if (c % 10 == 0) {
        sim::MemorySystem mem{item.config, item.streams};
        std::string trace;
        {
          const Span span{spans, Layer::obs};
          obs::Tracer tracer{mem};
          mem.run(report.cycles, finite);
          const Json chrome = tracer.chrome_trace();
          Span dump{spans, Layer::json};
          trace = chrome.dump();
          pass.layer["json.dump.s"] += dump.stop();
        }
        if (spans.enabled()) pass.counters["json.bytes"] += static_cast<i64>(trace.size());
      }
      pass.sim_cycles += report.cycles;
      pass.counters["report.cycles"] += report.cycles;
      pass.item_ms[c] = ms_between(t0, Clock::now());
      if (spans.enabled()) {
        pass.layer["obs.report_run.calls"] += 1.0;
        replay(spans, pass, item, report.cycles, finite);
      }
    } catch (const std::exception& e) {
      pass.fail(1, item.key + ": " + e.what());
    }
    return hex;
  }

  /// Traced runs: time the item's config through each lower layer.
  static void replay(SpanRecorder& spans, PassResult& pass, const ReportItem& item, i64 window,
                     bool finite) {
    if (finite) {
      Span span{spans, Layer::sim_run};
      const sim::RunResult r = sim::run_to_completion(item.config, item.streams);
      pass.layer["sim.run.s"] += span.stop();
      pass.counters["sim.run.cycles"] += r.cycles;
    } else {
      sim::SteadyState ss;
      {
        Span span{spans, Layer::sim_steady_state};
        ss = sim::find_steady_state(item.config, item.streams);
        pass.layer["sim.steady_state.s"] += span.stop();
      }
      pass.counters["sim.steady_state.cycles_simulated"] += ss.cycles_simulated;
      pass.layer["sim.steady_state.replay_s"] +=
          replay_steps(spans, pass, item.config, item.streams, ss.cycles_simulated);
    }
    // Observer fan-out: the report window stepped bare, then with a Tracer.
    pass.layer["obs.bare_step.s"] +=
        replay_steps(spans, pass, item.config, item.streams, window);
    const Span span{spans, Layer::obs};
    sim::MemorySystem mem{item.config, item.streams};
    obs::Tracer tracer{mem};
    const auto t0 = Clock::now();
    mem.run(window, /*stop_when_finished=*/false);
    pass.layer["obs.traced_step.s"] += seconds_between(t0, Clock::now());
    tracer.finish();
    pass.counters["obs.events"] += tracer.buffer().recorded();
  }

  Size size_;
  std::vector<ReportItem> items_;
  std::uint64_t seed_ = 0;
  std::uint64_t pass_ = 0;
};

// ---------------------------------------------------------------------------
// xmp_kernels: the X-MP KernelDriver over every kernel, INC and CPU load

struct KernelItem {
  std::size_t kernel = 0;
  i64 inc = 1;
  bool other_cpu = false;
  i64 n = 1024;
  bool multitask = false;
};

class XmpKernels final : public Workload {
 public:
  explicit XmpKernels(Size size) : size_{size} {}

  void setup(std::uint64_t seed) override {
    items_ = kernel_items(size_);
    seed_ = seed;
    pass_ = 0;
  }

  PassResult run_pass(SpanRecorder& spans) override {
    PassResult pass;
    pass.item_ms.assign(items_.size(), 0.0);
    std::vector<std::string> lines(items_.size());
    for (const std::size_t c : pass_order(items_.size(), seed_, 0x584d50ULL, pass_++)) {
      lines[c] = run_item(spans, pass, c);
    }
    Fnv digest;
    for (const std::string& line : lines) digest.update(line);
    pass.digests.push_back(Digest{"kernels", digest.hex(), pass.items});
    return pass;
  }

  [[nodiscard]] i64 items_per_pass() const override { return static_cast<i64>(items_.size()); }

 private:
  /// Every kernel x INC 1..16 x other CPU off/on x n, then every kernel x
  /// INC multitasked over both CPUs.
  static std::vector<KernelItem> kernel_items(Size size) {
    std::vector<KernelItem> items;
    const std::size_t kernels = size == Size::full ? xmp::all_kernels().size() : 2;
    const i64 max_inc = size == Size::full ? 16 : 2;
    const std::vector<i64> lengths =
        size == Size::full ? std::vector<i64>{1024, 4096} : std::vector<i64>{256};
    for (std::size_t k = 0; k < kernels; ++k) {
      for (i64 inc = 1; inc <= max_inc; ++inc) {
        for (const bool other : {false, true}) {
          for (const i64 n : lengths) items.push_back(KernelItem{k, inc, other, n, false});
        }
      }
    }
    for (std::size_t k = 0; k < kernels; ++k) {
      for (i64 inc = 1; inc <= max_inc; ++inc) {
        items.push_back(KernelItem{k, inc, false, lengths.front(), true});
      }
    }
    return items;
  }

  std::string run_item(SpanRecorder& spans, PassResult& pass, std::size_t c) {
    const KernelItem& item = items_[c];
    const xmp::KernelSpec& spec = xmp::all_kernels()[item.kernel];
    xmp::TriadSetup setup;
    setup.n = item.n;
    setup.inc = item.inc;
    const auto t0 = Clock::now();
    ++pass.items;
    i64 cycles = 0;
    vpmem::sim::ConflictTotals conflicts;
    try {
      Span span{spans, Layer::xmp};
      if (item.multitask) {
        const xmp::MultitaskResult r = xmp::run_kernel_multitasked(config_, spec, setup);
        cycles = r.cycles;
        conflicts = r.conflicts;
      } else {
        const xmp::TriadResult r = xmp::run_kernel(config_, spec, setup, item.other_cpu);
        cycles = r.cycles;
        conflicts = r.conflicts;
      }
      pass.layer["xmp.s"] += span.stop();
    } catch (const std::exception& e) {
      pass.fail(1, spec.name + ": " + e.what());
    }
    pass.item_ms[c] = ms_between(t0, Clock::now());
    pass.sim_cycles += cycles;
    pass.counters["xmp.cycles"] += cycles;
    pass.counters["xmp.conflicts"] += conflicts.total();
    if (spans.enabled()) replay_steps(spans, pass, config_.memory, live_streams(item), cycles);
    return spec.name + " inc=" + std::to_string(item.inc) + " other=" +
           std::to_string(item.other_cpu ? 1 : 0) + " n=" + std::to_string(item.n) +
           " multitask=" + std::to_string(item.multitask ? 1 : 0) +
           " cycles=" + std::to_string(cycles) + " bank=" + std::to_string(conflicts.bank) +
           " simultaneous=" + std::to_string(conflicts.simultaneous) +
           " section=" + std::to_string(conflicts.section) +
           " fault=" + std::to_string(conflicts.fault);
  }

  /// The item's live ports as plain infinite streams: one per array of the
  /// kernel on each working CPU, plus the other CPU's background streams.
  /// The step replay runs these on a bare MemorySystem, without the
  /// KernelDriver's retired strip ports.
  [[nodiscard]] std::vector<sim::StreamConfig> live_streams(const KernelItem& item) const {
    const xmp::KernelSpec& spec = xmp::all_kernels()[item.kernel];
    const xmp::TriadSetup defaults;
    const i64 m = config_.memory.banks;
    const i64 arrays = spec.loads + (spec.store ? 1 : 0);
    std::vector<sim::StreamConfig> streams;
    for (i64 cpu = 0; cpu < (item.multitask ? 2 : 1); ++cpu) {
      const i64 first = cpu * (item.n / 2);
      for (i64 a = 0; a < arrays; ++a) {
        streams.push_back(stream(vpmem::mod_norm(a * defaults.idim + first * item.inc, m),
                                 vpmem::mod_norm(item.inc, m), cpu));
      }
    }
    if (item.other_cpu && !item.multitask) {
      for (const i64 bank : config_.background_start_banks) streams.push_back(stream(bank, 1, 1));
    }
    return streams;
  }

  Size size_;
  xmp::XmpConfig config_{};
  std::vector<KernelItem> items_;
  std::uint64_t seed_ = 0;
  std::uint64_t pass_ = 0;
};

// ---------------------------------------------------------------------------
// fuzz_faults: check::fuzz's sequential loop over healthy and fault-plan cases

/// Case seeds of the benchmark; distinct from the fixed seeds of the test
/// suite (0x0ed1a25) and tools/check.sh (0x20250807, 0x20260807).
constexpr std::uint64_t kHealthySeed = 0xbe4c0001;
constexpr std::uint64_t kFaultPlanSeed = 0xbe4c0002;

class FuzzFaults final : public Workload {
 public:
  explicit FuzzFaults(Size size) : size_{size} {
    healthy_.seed = kHealthySeed;
    healthy_.iterations = size == Size::full ? 10'000 : 100;
    faulty_.seed = kFaultPlanSeed;
    faulty_.iterations = size == Size::full ? 5'000 : 50;
    faulty_.fault_plans = true;
  }

  /// Pre-sample every case exactly as check::fuzz does, then order them.
  void setup(std::uint64_t seed) override {
    cases_.clear();
    for (const check::FuzzOptions* options : {&healthy_, &faulty_}) {
      vpmem::baseline::SplitMix64 rng{options->seed};
      for (i64 i = 0; i < options->iterations; ++i) {
        cases_.push_back(check::sample_case(rng, *options));
      }
    }
    seed_ = seed;
    pass_ = 0;
  }

  PassResult run_pass(SpanRecorder& spans) override {
    PassResult pass;
    check::FuzzSummary healthy;
    check::FuzzSummary faulty;
    healthy.seed = healthy_.seed;
    faulty.seed = faulty_.seed;
    const auto healthy_cases = static_cast<std::size_t>(healthy_.iterations);
    pass.item_ms.assign(cases_.size(), 0.0);
    for (const std::size_t c : pass_order(cases_.size(), seed_, 0x46555a5aULL, pass_++)) {
      const bool is_healthy = c < healthy_cases;
      const check::FuzzOptions& options = is_healthy ? healthy_ : faulty_;
      check::FuzzSummary& summary = is_healthy ? healthy : faulty;
      const check::FuzzCase& fuzz_case = cases_[c];
      const auto t0 = Clock::now();
      check::CaseResult result;
      {
        Span span{spans, Layer::check};
        result = check::check_case(fuzz_case, options.invariants, options.run_invariants);
        pass.layer[is_healthy ? "check.healthy.s" : "check.fault_plan.s"] += span.stop();
      }
      pass.item_ms[c] = ms_between(t0, Clock::now());
      ++pass.items;
      pass.sim_cycles += fuzz_case.cycles;
      ++summary.iterations;
      summary.checks_run += result.checks_run;
      summary.events_compared += result.events_compared;
      pass.counters["check.checks_run"] += result.checks_run;
      pass.counters["check.events_compared"] += result.events_compared;
      if (!result.ok()) {
        const auto iteration = static_cast<i64>(is_healthy ? c : c - healthy_cases);
        const check::CaseFailure& first = result.failures.front();
        summary.failures.push_back(check::FuzzFailure{iteration, first.check, first.message,
                                                      check::encode_repro(fuzz_case), ""});
        pass.fail(1, "fuzz case " + std::to_string(iteration) + " (" + first.check +
                         "): " + first.message);
      }
      if (spans.enabled()) replay(spans, pass, fuzz_case, is_healthy);
    }
    const std::string healthy_text = healthy.to_json().dump();
    const std::string faulty_text = faulty.to_json().dump();
    if (size_ == Size::tiny) {
      // The per-case fold must be check::fuzz's own sequential loop.
      if (check::fuzz(healthy_).to_json().dump() != healthy_text ||
          check::fuzz(faulty_).to_json().dump() != faulty_text) {
        pass.fail(pass.items, "per-case fold disagrees with check::fuzz");
      }
    }
    Fnv healthy_digest;
    healthy_digest.update(healthy_text);
    pass.digests.push_back(Digest{"healthy", healthy_digest.hex(), healthy_.iterations});
    Fnv faulty_digest;
    faulty_digest.update(faulty_text);
    pass.digests.push_back(Digest{"fault_plans", faulty_digest.hex(), faulty_.iterations});
    return pass;
  }

  [[nodiscard]] i64 items_per_pass() const override {
    return healthy_.iterations + faulty_.iterations;
  }

 private:
  /// Traced runs: the reference model and the bare simulator over the
  /// case's differential budget.
  static void replay(SpanRecorder& spans, PassResult& pass, const check::FuzzCase& fuzz_case,
                     bool healthy) {
    pass.layer[healthy ? "check.healthy.cases" : "check.fault_plan.cases"] += 1.0;
    {
      const Span span{spans, Layer::check};
      check::ReferenceModel model{fuzz_case.config, fuzz_case.streams, check::FaultKind::none,
                                  fuzz_case.plan};
      const auto t0 = Clock::now();
      model.run(fuzz_case.cycles);
      pass.layer["check.reference.s"] += seconds_between(t0, Clock::now());
      pass.counters["check.reference.cycles"] += fuzz_case.cycles;
    }
    replay_steps(spans, pass, fuzz_case.config, fuzz_case.streams, fuzz_case.cycles,
                 fuzz_case.plan);
  }

  Size size_;
  check::FuzzOptions healthy_;
  check::FuzzOptions faulty_;
  std::vector<check::FuzzCase> cases_;
  std::uint64_t seed_ = 0;
  std::uint64_t pass_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"stride_sweep", "large_m_report", "xmp_kernels",
                                              "fuzz_faults"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, Size size,
                                        const std::string& work_dir) {
  if (name == "stride_sweep") return std::make_unique<StrideSweep>(size, work_dir);
  if (name == "large_m_report") return std::make_unique<LargeMReport>(size);
  if (name == "xmp_kernels") return std::make_unique<XmpKernels>(size);
  if (name == "fuzz_faults") return std::make_unique<FuzzFaults>(size);
  throw std::invalid_argument{"unknown workload '" + name + "'"};
}

}  // namespace vpbench
