// Engine throughput: cycles/second of the simulator core across port
// counts and memory sizes, plus the cost of steady-state detection, a
// full triad run and the JSON exports (Chrome trace, run report).  Pure performance benchmark (no figure reproduction).
#include "bench_common.hpp"

namespace {

using namespace vpmem;

void print_figure() {
  std::cout << "==== Simulator engine throughput (google-benchmark below) ====\n\n";
}

std::vector<sim::StreamConfig> make_streams(i64 ports, i64 m) {
  std::vector<sim::StreamConfig> streams;
  for (i64 p = 0; p < ports; ++p) {
    streams.push_back(sim::StreamConfig{
        .start_bank = (p * 3) % m, .distance = 1 + p % 3, .cpu = p % 2});
  }
  return streams;
}

/// Deterministic work counter next to the wall time: ports step() visited
/// per simulated cycle (the live ports, whatever m or the retired count).
void count_visits(benchmark::State& state, const sim::MemorySystem& mem, i64 visited_before) {
  state.counters["ports_visited_per_cycle"] =
      static_cast<double>(mem.ports_visited() - visited_before) /
      static_cast<double>(state.iterations());
}

void bm_step(benchmark::State& state) {
  const i64 ports = state.range(0);
  const i64 m = state.range(1);
  sim::MemorySystem mem{{.banks = m, .sections = m / 4, .bank_cycle = 4},
                        make_streams(ports, m)};
  for (auto _ : state) mem.step();
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * ports);
  state.counters["cycles_per_second"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  count_visits(state, mem, 0);
}
// 16/4096: the cost of a step must not grow with m (no per-cycle O(m)
// claim reset).
BENCHMARK(bm_step)
    ->Args({1, 16})
    ->Args({2, 16})
    ->Args({6, 16})
    ->Args({6, 64})
    ->Args({16, 256})
    ->Args({16, 4096});

// 6 live ports behind 250 retired ones (the shape an X-MP kernel leaves
// behind): must cost about what bm_step/6/16 costs, since step() visits
// only live ports.
void bm_step_retired(benchmark::State& state) {
  const i64 m = 16;
  std::vector<sim::StreamConfig> streams;
  for (i64 p = 0; p < 250; ++p) {
    streams.push_back(sim::StreamConfig{.start_bank = p % m, .cpu = p % 2, .length = 1});
  }
  const std::vector<sim::StreamConfig> live = make_streams(6, m);
  streams.insert(streams.end(), live.begin(), live.end());
  sim::MemorySystem mem{{.banks = m, .sections = m / 4, .bank_cycle = 4}, streams};
  while (mem.live_port_count() > live.size()) mem.step();
  const i64 visited = mem.ports_visited();
  for (auto _ : state) mem.step();
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 6);
  state.counters["cycles_per_second"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  count_visits(state, mem, visited);
}
BENCHMARK(bm_step_retired);

// The same workloads with the full tracing v2 stack attached (the bounded
// event buffer attached as a recorder, attribution folded per filled
// chunk).  Comparing
// cycles_per_second against the matching bm_step row gives the tracer
// overhead; steady_perf_test asserts the ratio stays under 2x.
void bm_step_traced(benchmark::State& state) {
  const i64 ports = state.range(0);
  const i64 m = state.range(1);
  sim::MemorySystem mem{{.banks = m, .sections = m / 4, .bank_cycle = 4},
                        make_streams(ports, m)};
  obs::Tracer tracer{mem};
  for (auto _ : state) mem.step();
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * ports);
  state.counters["cycles_per_second"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(tracer.buffer().recorded()), benchmark::Counter::kIsRate);
}
BENCHMARK(bm_step_traced)->Args({2, 16})->Args({6, 64})->Args({16, 256});

/// Deterministic work counter of a steady-state row: cycles the search
/// stepped (transient + period) plus the cycles its confirming replay
/// stepped, per search.
void count_search(benchmark::State& state, const sim::SteadyState& ss) {
  state.counters["cycles_simulated"] = static_cast<double>(ss.cycles_simulated);
  state.counters["ns_per_cycle"] = benchmark::Counter(
      static_cast<double>(ss.cycles_simulated) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// m up to 32768: a search cycle costs O(p + grants), not O(m), so the
// ns/cycle column grows with m only through cache misses.
void bm_find_steady_state(benchmark::State& state) {
  const sim::MemoryConfig cfg{.banks = state.range(0), .sections = state.range(0),
                              .bank_cycle = 4};
  sim::SteadyState ss;
  for (auto _ : state) {
    ss = sim::find_steady_state(cfg, sim::two_streams(0, 1, 1, 3));
    benchmark::DoNotOptimize(ss);
  }
  count_search(state, ss);
}
BENCHMARK(bm_find_steady_state)->Arg(16)->Arg(64)->Arg(256)->Arg(4096)->Arg(32768);

// The shape behind `vpmem_cli idim 7 45 3 46 21 --cyclic-priority`: 46
// ports on 46 CPUs, stride 3, start banks one apart, m = 7, n_c = 45 > m,
// cyclic priority; about 10^5 cycles to the first repeat.  Storing
// anything proportional to p per cycle shows up here.
void bm_find_steady_state_idim(benchmark::State& state) {
  const sim::MemoryConfig cfg{.banks = 7, .sections = 7, .bank_cycle = 45,
                              .priority = sim::PriorityRule::cyclic};
  sim::SteadyState ss;
  for (auto _ : state) {
    ss = sim::find_steady_state(cfg, core::uniform_streams(46, 3, 1, 7, /*same_cpu=*/false));
    benchmark::DoNotOptimize(ss);
  }
  count_search(state, ss);
}
BENCHMARK(bm_find_steady_state_idim)->Unit(benchmark::kMillisecond);

/// Work counters of a JSON export row: bytes written and the simulator
/// events behind them per iteration, plus the byte rate.
void count_export(benchmark::State& state, std::size_t bytes, i64 events) {
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["events"] = static_cast<double>(events);
  state.counters["bytes_per_second"] = benchmark::Counter(
      static_cast<double>(bytes) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

// A Chrome-trace export at m = 1024, sections = 8, two streams of one CPU
// (grants plus section and bank conflicts): run 2048 cycles under a
// Tracer, build the vpmem.trace/1 document, dump it.
void bm_chrome_trace_export(benchmark::State& state) {
  const sim::MemoryConfig cfg{.banks = 1024, .sections = 8, .bank_cycle = 8};
  std::size_t bytes = 0;
  i64 events = 0;
  for (auto _ : state) {
    sim::MemorySystem mem{cfg, sim::two_streams(0, 1, 0, 3, true)};
    obs::Tracer tracer{mem};
    mem.run(2048, /*stop_when_finished=*/false);
    const std::string text = tracer.chrome_trace().dump();
    bytes = text.size();
    events = tracer.buffer().recorded();
    benchmark::DoNotOptimize(text.data());
  }
  count_export(state, bytes, events);
}
BENCHMARK(bm_chrome_trace_export)->Unit(benchmark::kMillisecond);

// Dumping one attributed run report of the same machine and streams,
// built once.
void bm_json_dump_report(benchmark::State& state) {
  const sim::MemoryConfig cfg{.banks = 1024, .sections = 8, .bank_cycle = 8};
  const obs::RunReport report = obs::report_run(cfg, sim::two_streams(0, 1, 0, 3, true));
  Json doc = report.to_json();
  doc["perf"] = nullptr;  // wall-clock telemetry would change the byte count
  i64 events = 0;
  for (const sim::PortStats& p : report.ports) events += p.grants + p.total_conflicts();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = doc.dump();
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
  }
  count_export(state, bytes, events);
}
BENCHMARK(bm_json_dump_report);

void bm_triad_n1024(benchmark::State& state) {
  xmp::XmpConfig machine;
  xmp::TriadSetup setup;
  setup.inc = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xmp::run_triad(machine, setup, /*other_cpu_active=*/true));
  }
}
BENCHMARK(bm_triad_n1024);

// The X-MP triad at n=4096 against the other CPU: 259 strip instructions
// issue over the run, at most 7 ports are live at once.
void bm_kernel_triad_n4096(benchmark::State& state) {
  xmp::XmpConfig machine;
  xmp::TriadSetup setup;
  setup.n = 4096;
  setup.inc = 2;
  i64 cycles = 0;
  for (auto _ : state) {
    const xmp::TriadResult r =
        xmp::run_kernel(machine, xmp::triad_kernel(), setup, /*other_cpu_active=*/true);
    cycles = r.cycles;
    benchmark::DoNotOptimize(r);
  }
  state.counters["simulated_cycles"] = static_cast<double>(cycles);
  state.counters["ns_per_cycle"] = benchmark::Counter(
      static_cast<double>(cycles) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(bm_kernel_triad_n4096);

void bm_offset_sweep(benchmark::State& state) {
  const sim::MemoryConfig cfg{.banks = 16, .sections = 16, .bank_cycle = 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::sweep_start_offsets(cfg, 1, 6));
  }
}
BENCHMARK(bm_offset_sweep);

}  // namespace

VPMEM_FIGURE_MAIN_JSON(print_figure, "BENCH_perf_sim_engine.json")
