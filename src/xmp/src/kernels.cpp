#include "vpmem/xmp/kernels.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <tuple>

#include "vpmem/baseline/random_traffic.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/sim/run.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::xmp {

namespace {

constexpr std::size_t kUnset = static_cast<std::size_t>(-1);

[[noreturn]] void invalid(const std::string& what) {
  throw Error{ErrorCode::config_invalid, what};
}

void validate_setup(const XmpConfig& config, const TriadSetup& setup) {
  config.memory.validate();
  if (config.vector_length < 1) invalid("XmpConfig: vector_length >= 1");
  if (config.issue_gap < 0) invalid("XmpConfig: issue_gap >= 0");
  if (config.chain_latency < 1) invalid("XmpConfig: chain_latency >= 1");
  if (setup.n < 1) invalid("TriadSetup: n >= 1");
  if (setup.inc < 1) invalid("TriadSetup: inc >= 1");
  if (setup.idim < 1) invalid("TriadSetup: idim >= 1");
  for (i64 b : config.background_start_banks) {
    if (b < 0 || b >= config.memory.banks) invalid("XmpConfig: background start bank out of range");
  }
}

/// Issues one CPU's strip-mined kernel instructions into a (possibly
/// shared) MemorySystem as their dependencies clear: loads round-robin
/// over the CPU's two load ports, the store chained a fixed latency
/// behind the last operand's first element.  Processes the element range
/// [first_element, first_element + count) of the loop.
///
/// Each operand (and the store) issues its strips in order, so a cursor
/// per operand names its next instruction and tick() checks at most one
/// candidate per operand instead of rescanning every strip.  A hardware
/// port serves the earliest ready candidate in (strip, operand) order —
/// a gathered load waits for its index load to start, and the port may
/// serve a later operand meanwhile — and the ready candidates of one tick
/// issue in (strip, operand) order, a strip's store after its loads, so
/// sim port indices (and with them fixed priority) are those of a full
/// rescan of every strip.
class KernelDriver {
 public:
  KernelDriver(sim::MemorySystem& mem, const XmpConfig& config, const KernelSpec& spec,
               const TriadSetup& setup, i64 cpu, i64 first_element, i64 count)
      : mem_{mem},
        config_{config},
        spec_{spec},
        setup_{setup},
        cpu_{cpu},
        first_element_{first_element},
        count_{count},
        nloads_{static_cast<std::size_t>(spec.loads)},
        strips_{static_cast<std::size_t>(ceil_div(count, config.vector_length))},
        load_idx_(strips_, std::vector<std::size_t>(std::max<std::size_t>(nloads_, 1), kUnset)),
        store_idx_(strips_, kUnset),
        next_load_(nloads_, 0) {
    if (count_ < 1) invalid("KernelDriver: count must be >= 1");
  }

  /// Schedule whatever became ready; call after every clock period (and
  /// once before the first step to issue the initial loads).
  void tick() {
    // No issue changes another candidate's readiness within the tick: a
    // new instruction has not started, and each port issues at most once.
    std::array<Issue, kLoadPorts + 1> ready;
    std::size_t count = 0;
    const auto keep = [&](const std::optional<Issue>& issue) {
      if (!issue) return;
      std::size_t at = count++;  // insertion into (strip, operand) order
      for (; at > 0 && std::tie(issue->strip, issue->operand) <
                           std::tie(ready[at - 1].strip, ready[at - 1].operand);
           --at) {
        ready[at] = ready[at - 1];
      }
      ready[at] = *issue;
    };
    for (std::size_t h = 0; h < kLoadPorts; ++h) keep(load_candidate(h));
    keep(store_candidate());
    for (std::size_t i = 0; i < count; ++i) {
      const Issue& issue = ready[i];
      if (issue.operand == nloads_) {
        store_idx_[issue.strip] = add(0, issue.strip, issue.start, store_port_);
        ++next_store_;
      } else {
        load_idx_[issue.strip][issue.operand] =
            add(first_load_array() + issue.operand, issue.strip, issue.start,
                load_port_[issue.operand % kLoadPorts]);
        ++next_load_[issue.operand];
      }
    }
  }

  [[nodiscard]] bool finished() const {
    const std::size_t k = strips_ - 1;
    if (spec_.store) return store_idx_[k] != kUnset && mem_.port_done(store_idx_[k]);
    for (std::size_t q = 0; q < nloads_; ++q) {
      if (load_idx_[k][q] == kUnset || !mem_.port_done(load_idx_[k][q])) return false;
    }
    return true;
  }

  [[nodiscard]] const std::vector<std::size_t>& ports() const noexcept { return ports_; }

 private:
  static constexpr std::size_t kLoadPorts = 2;
  struct HwPort {
    std::size_t last = kUnset;  ///< sim-port index of the last instruction
  };
  /// One instruction ready to issue; operand == nloads_ is the store.
  struct Issue {
    std::size_t strip = 0;
    std::size_t operand = 0;
    i64 start = 0;
  };

  [[nodiscard]] std::size_t first_load_array() const { return spec_.store ? 1 : 0; }

  /// Sim port `p` has been granted its first element.
  [[nodiscard]] bool started(std::size_t p) const {
    return p != kUnset && stats(p).first_grant_cycle >= 0;
  }

  /// Load port `h`'s next instruction: the earliest operand cursor in
  /// (strip, operand) order among the operands it serves (q = h mod 2),
  /// skipping a gathered load whose index load has not started.
  [[nodiscard]] std::optional<Issue> load_candidate(std::size_t h) const {
    const HwPort& hw = load_port_[h];
    if (hw.last != kUnset && !mem_.port_done(hw.last)) return std::nullopt;
    std::optional<Issue> best;
    for (std::size_t q = h; q < nloads_; q += kLoadPorts) {
      const std::size_t k = next_load_[q];
      if (k == strips_ || (best && k >= best->strip)) continue;
      // B(IX(I)) cannot issue before indices start arriving.
      if (spec_.gather && q == 1 && !started(load_idx_[k][0])) continue;
      best = Issue{.strip = k, .operand = q};
    }
    if (!best) return std::nullopt;
    best->start = (hw.last == kUnset) ? mem_.now() : free_after(hw.last);
    if (spec_.gather && best->operand == 1) {
      best->start = std::max(best->start, stats(load_idx_[best->strip][0]).first_grant_cycle +
                                              config_.chain_latency);
    }
    return best;
  }

  /// The store port's next instruction: the next strip's store once every
  /// operand of that strip has started arriving.
  [[nodiscard]] std::optional<Issue> store_candidate() const {
    if (!spec_.store || next_store_ == strips_) return std::nullopt;
    const std::size_t k = next_store_;
    i64 chain_start = 0;
    for (std::size_t q = 0; q < nloads_; ++q) {
      if (!started(load_idx_[k][q])) return std::nullopt;
      chain_start = std::max(chain_start,
                             stats(load_idx_[k][q]).first_grant_cycle + config_.chain_latency);
    }
    if (store_port_.last != kUnset) {
      if (!mem_.port_done(store_port_.last)) return std::nullopt;
      chain_start = std::max(chain_start, free_after(store_port_.last));
    }
    return Issue{.strip = k, .operand = nloads_, .start = chain_start};
  }

  [[nodiscard]] i64 strip_len(std::size_t k) const {
    return std::min<i64>(config_.vector_length,
                         count_ - static_cast<i64>(k) * config_.vector_length);
  }

  [[nodiscard]] sim::StreamConfig make_stream(std::size_t array, std::size_t k,
                                              i64 start_cycle) const {
    const i64 m = config_.memory.banks;
    sim::StreamConfig s;
    s.cpu = cpu_;
    s.length = strip_len(k);
    s.start_cycle = start_cycle;
    const bool indexed_load = spec_.gather && array == first_load_array() + 1;
    const bool indexed_store = spec_.scatter && spec_.store && array == 0;
    if (indexed_load || indexed_store) {
      // The indexed operand: banks determined by the data in IX, modeled
      // as uniform random, deterministic per (cpu, strip).
      s.bank_pattern = baseline::random_bank_pattern(
          m, static_cast<std::size_t>(strip_len(k)),
          0xC0FFEEULL + 1000ULL * static_cast<std::uint64_t>(cpu_) +
              static_cast<std::uint64_t>(k));
    } else {
      const i64 base = mod_norm(setup_.base_bank + static_cast<i64>(array) * setup_.idim, m);
      const i64 element0 = first_element_ + static_cast<i64>(k) * config_.vector_length;
      s.start_bank = mod_norm(base + element0 * setup_.inc, m);
      s.distance = mod_norm(setup_.inc, m);
    }
    return s;
  }

  [[nodiscard]] const sim::PortStats& stats(std::size_t sim_port) const {
    return mem_.port_stats(sim_port);
  }
  [[nodiscard]] i64 free_after(std::size_t sim_port) const {
    return stats(sim_port).last_grant_cycle + 1 + config_.issue_gap;
  }
  std::size_t add(std::size_t array, std::size_t k, i64 start, HwPort& hw) {
    const std::size_t sim_port =
        mem_.add_stream(make_stream(array, k, std::max(start, mem_.now())));
    hw.last = sim_port;
    ports_.push_back(sim_port);
    return sim_port;
  }

  sim::MemorySystem& mem_;
  const XmpConfig& config_;
  const KernelSpec& spec_;
  const TriadSetup& setup_;
  i64 cpu_;
  i64 first_element_;
  i64 count_;
  std::size_t nloads_;
  std::size_t strips_;
  std::array<HwPort, kLoadPorts> load_port_;
  HwPort store_port_;
  std::vector<std::vector<std::size_t>> load_idx_;
  std::vector<std::size_t> store_idx_;
  std::vector<std::size_t> next_load_;  ///< per operand: next strip to issue
  std::size_t next_store_ = 0;          ///< next strip whose store issues
  std::vector<std::size_t> ports_;
};

/// Step `mem`, calling `tick` (issue what became ready, then report
/// whether every instruction finished) after each period.  No valid run
/// lasts 1e6 + 64 n periods; a scheduler bug stops there with
/// deadline_exceeded instead of hanging.  Livelock detection stays off:
/// the drivers add ports with future start cycles mid-run.
void run_kernel_loop(sim::MemorySystem& mem, i64 n, const sim::StepHook& tick) {
  const sim::Watchdog guard{.max_cycles = 1'000'001 + n * 64, .livelock_factor = 0};
  if (!sim::drive(mem, guard, {.until_finished = false}, tick).ok()) {
    throw Error{ErrorCode::deadline_exceeded,
                "run_kernel: execution did not finish within " +
                    std::to_string(guard.max_cycles) + " cycles"};
  }
}

std::vector<sim::PortStats> collect(const sim::MemorySystem& mem,
                                    const std::vector<std::size_t>& ports, i64* cycles) {
  std::vector<sim::PortStats> out;
  out.reserve(ports.size());
  for (std::size_t sim_port : ports) {
    out.push_back(mem.port_stats(sim_port));
    if (cycles != nullptr) *cycles = std::max(*cycles, out.back().last_grant_cycle + 1);
  }
  return out;
}

}  // namespace

void KernelSpec::validate() const {
  if (loads < 0) invalid("KernelSpec: loads must be >= 0");
  if (loads == 0 && !store) invalid("KernelSpec: kernel must access memory");
  if (gather && loads < 2) invalid("KernelSpec: gather needs an index load and an indexed load");
  if (scatter && (loads < 1 || !store)) {
    invalid("KernelSpec: scatter needs an index load and a store");
  }
}

KernelSpec copy_kernel() { return KernelSpec{.name = "copy", .loads = 1, .store = true}; }
KernelSpec scale_kernel() { return KernelSpec{.name = "scale", .loads = 1, .store = true}; }
KernelSpec sum_kernel() { return KernelSpec{.name = "sum", .loads = 1, .store = false}; }
KernelSpec daxpy_kernel() { return KernelSpec{.name = "daxpy", .loads = 2, .store = true}; }
KernelSpec triad_kernel() { return KernelSpec{.name = "triad", .loads = 3, .store = true}; }

KernelSpec gather_kernel() {
  return KernelSpec{.name = "gather", .loads = 2, .store = true, .gather = true};
}

KernelSpec scatter_kernel() {
  return KernelSpec{.name = "scatter", .loads = 2, .store = true, .scatter = true};
}

const std::vector<KernelSpec>& all_kernels() {
  static const std::vector<KernelSpec> kernels{copy_kernel(),  scale_kernel(), sum_kernel(),
                                               daxpy_kernel(), triad_kernel(), gather_kernel(),
                                               scatter_kernel()};
  return kernels;
}

TriadResult run_kernel(const XmpConfig& config, const KernelSpec& spec, const TriadSetup& setup,
                       bool other_cpu_active) {
  spec.validate();
  validate_setup(config, setup);

  sim::MemorySystem mem{config.memory, {}};
  KernelDriver driver{mem, config, spec, setup, /*cpu=*/0, /*first_element=*/0, setup.n};
  // Issue the first vector instructions before the background streams so
  // the measured CPU's ports hold fixed-priority seniority — this matters
  // for the eq. 28 equality barriers (e.g. INC = 11 vs the stride-1
  // environment, which only forms when the triad's ports have priority).
  driver.tick();
  std::vector<std::size_t> background_ports;
  if (other_cpu_active) {
    for (i64 bank : config.background_start_banks) {
      sim::StreamConfig s;
      s.start_bank = bank;
      s.distance = 1;
      s.cpu = 1;
      background_ports.push_back(mem.add_stream(s));
    }
  }

  run_kernel_loop(mem, setup.n, [&](const sim::MemorySystem&) {
    driver.tick();
    return driver.finished();
  });

  TriadResult out;
  out.triad_ports = collect(mem, driver.ports(), &out.cycles);
  out.conflicts = sim::totals(out.triad_ports);
  out.background_ports = collect(mem, background_ports, nullptr);
  return out;
}

MultitaskResult run_kernel_multitasked(const XmpConfig& config, const KernelSpec& spec,
                                       const TriadSetup& setup) {
  spec.validate();
  validate_setup(config, setup);
  const i64 half = ceil_div(setup.n, 2);

  sim::MemorySystem mem{config.memory, {}};
  KernelDriver cpu0{mem, config, spec, setup, /*cpu=*/0, /*first_element=*/0, half};
  // n == 1: CPU 1 has nothing to do; run single-driver in that case.
  const bool two_halves = setup.n > 1;
  std::optional<KernelDriver> cpu1;
  if (two_halves) cpu1.emplace(mem, config, spec, setup, /*cpu=*/1, half, setup.n - half);
  cpu0.tick();
  if (cpu1) cpu1->tick();

  run_kernel_loop(mem, setup.n, [&](const sim::MemorySystem&) {
    cpu0.tick();
    if (cpu1) cpu1->tick();
    return cpu0.finished() && (!cpu1 || cpu1->finished());
  });

  MultitaskResult out;
  out.cpu0_ports = collect(mem, cpu0.ports(), &out.cycles);
  if (cpu1) out.cpu1_ports = collect(mem, cpu1->ports(), &out.cycles);
  out.conflicts = sim::totals(out.cpu0_ports);
  const sim::ConflictTotals c1 = sim::totals(out.cpu1_ports);
  out.conflicts.bank += c1.bank;
  out.conflicts.simultaneous += c1.simultaneous;
  out.conflicts.section += c1.section;
  out.conflicts.fault += c1.fault;
  return out;
}

}  // namespace vpmem::xmp
