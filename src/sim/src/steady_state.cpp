#include "vpmem/sim/steady_state.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>

#include "vpmem/sim/memory_system.hpp"
#include "vpmem/sim/run.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::sim {

namespace {

using u64 = std::uint64_t;

PortStats delta(const PortStats& later, const PortStats& earlier) {
  PortStats d;
  d.grants = later.grants - earlier.grants;
  d.bank_conflicts = later.bank_conflicts - earlier.bank_conflicts;
  d.simultaneous_conflicts = later.simultaneous_conflicts - earlier.simultaneous_conflicts;
  d.section_conflicts = later.section_conflicts - earlier.section_conflicts;
  d.fault_conflicts = later.fault_conflicts - earlier.fault_conflicts;
  d.first_grant_cycle = earlier.last_grant_cycle;
  d.last_grant_cycle = later.last_grant_cycle;
  return d;
}

/// splitmix64's finalizer: a bijective, well-spread 64-bit mix.
constexpr u64 mix(u64 x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr u64 kGolden = 0x9e3779b97f4a7c15ULL;

constexpr u64 word(i64 v) noexcept { return static_cast<u64>(v); }

/// Base of the busy-bank polynomial: odd, so it has an inverse mod 2^64,
/// and 3 mod 4, so its powers stay apart in the low bits.
constexpr u64 kBase = 0xd6e8feb86659fd93ULL;

/// x^e mod 2^64 by squaring.
constexpr u64 power(u64 x, i64 e) noexcept {
  u64 out = 1;
  for (; e > 0; e >>= 1, x *= x) {
    if ((e & 1) != 0) out *= x;
  }
  return out;
}

/// The inverse of an odd x mod 2^64 (Newton: each round doubles the
/// correct low bits, from 3).
constexpr u64 inverse(u64 x) noexcept {
  u64 y = x;
  for (int i = 0; i < 5; ++i) y *= 2 - x * y;
  return y;
}

static_assert(kBase * inverse(kBase) == 1);

/// 64-bit fingerprint of a plan-free machine's state, computed from the
/// fields of MemorySystem::state_key() in O(p + grants) per cycle with no
/// allocation: equal keys give equal fingerprints.  The bank term is read
/// sparsely.  Every grant holds its bank for exactly n_c periods, so the
/// banks busy at now() are those granted in the last n_c - 1 steps.  They
/// enter as sum over (bank, remaining) of h(bank) * x^remaining mod 2^64,
/// kept as sum_ = sum of h(bank) * x^free_at and scaled by x^-now: a grant
/// adds its term and an expiry subtracts it, so neither the order of the
/// grants nor the number of busy banks costs anything per cycle.  Pending
/// expiries wait, oldest first, in a ring of min(m, p * (n_c - 1)).
class Fingerprinter {
 public:
  explicit Fingerprinter(const MemorySystem& mem)
      : banks_{mem.config().banks},
        nc_{mem.config().bank_cycle},
        cyclic_{mem.config().priority == PriorityRule::cyclic},
        lead_{power(kBase, nc_ - 1)} {
    ports_.reserve(mem.port_count());
    for (std::size_t i = 0; i < mem.port_count(); ++i) {
      const StreamConfig& s = mem.stream(i);
      ports_.push_back(Port{.pattern_length = static_cast<i64>(s.bank_pattern.size()),
                            .start_cycle = s.start_cycle,
                            .salt = mix(kGolden * (i + 1))});
    }
    const i64 p = static_cast<i64>(ports_.size());
    const i64 window = nc_ - 1;  // steps whose grants are still busy
    const i64 capacity = p == 0 || window <= banks_ / p ? p * window : banks_;
    ring_.resize(static_cast<std::size_t>(capacity));
  }

  /// Account for the step that just ran (now() advanced by one): drop the
  /// banks that are free at now() and add the step's grants.
  void after_step(const MemorySystem& mem) {
    const i64 now = mem.now();
    x_now_ *= kBase;
    x_minus_now_ *= kInverseBase;
    while (size_ > 0 && ring_[head_].free_at <= now) {
      sum_ -= ring_[head_].term;
      head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
      --size_;
    }
    if (nc_ == 1) return;  // the bank is free again by the next period
    for (const auto& grant : mem.last_step_grants()) {
      // Granted at now() - 1, so free at now() - 1 + n_c.
      const u64 term = mix(grant.first + kGolden) * x_now_ * lead_;
      sum_ += term;
      std::size_t tail = head_ + size_;
      if (tail >= ring_.size()) tail -= ring_.size();
      ring_[tail] = Busy{.free_at = now - 1 + nc_, .term = term};
      ++size_;
    }
  }

  [[nodiscard]] u64 operator()(const MemorySystem& mem) const {
    const i64 now = mem.now();
    // A sum of independent mixes: no serial hash chain across the ports.
    u64 ports = 0;
    for (std::size_t i = 0; i < ports_.size(); ++i) {
      const Port& port = ports_[i];
      // The port's phase and its start delay, as state_key() reads them.
      const i64 phase = port.pattern_length == 0
                            ? mem.next_bank(i).value_or(-2)
                            : banks_ + mem.elements_done(i) % port.pattern_length;
      const i64 delay = std::max<i64>(0, port.start_cycle - now);
      ports += mix(port.salt ^ (word(phase) + word(delay) * kGolden));
    }
    const i64 p = static_cast<i64>(ports_.size());
    const i64 rotation = cyclic_ && p > 0 ? now % p : 0;  // rr mod p
    return mix(mix(ports ^ word(rotation)) + sum_ * x_minus_now_);
  }

 private:
  static constexpr u64 kInverseBase = inverse(kBase);

  struct Port {
    i64 pattern_length = 0;  ///< 0 for an affine stream
    i64 start_cycle = 0;
    u64 salt = 0;  ///< tells the ports' terms apart
  };
  struct Busy {
    i64 free_at = 0;
    u64 term = 0;  ///< h(bank) * x^free_at
  };

  i64 banks_;
  i64 nc_;
  bool cyclic_;
  u64 lead_;              ///< x^(n_c - 1)
  u64 x_now_ = 1;         ///< x^now
  u64 x_minus_now_ = 1;   ///< x^-now
  u64 sum_ = 0;           ///< sum of the busy banks' terms
  std::vector<Port> ports_;
  std::vector<Busy> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Every visited cycle's fingerprint, in a flat log indexed by cycle, and
/// an open-addressing table (load <= 1/2) from fingerprint to its first
/// visit.  A slot holds cycle + 1 (0 = empty) as an `Index`, which must
/// cover the largest cycle searched.  With a 32-bit Index that is at most
/// 16 B of log and 16 B of table per visited cycle, growth slack included
/// (a 64-bit Index, for budgets of 2^32 cycles or more, doubles the table).
template <typename Index>
class FingerprintLog {
 public:
  /// Logs the fingerprint of the next cycle, log().size(); returns the
  /// first earlier cycle that had the same fingerprint, if any.
  std::optional<i64> visit(u64 fp) {
    const auto cycle = static_cast<Index>(log_.size());
    log_.push_back(fp);
    if (2 * (entries_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = static_cast<std::size_t>(fp) & mask;; i = (i + 1) & mask) {
      const Index slot = slots_[i];
      if (slot == 0) {
        slots_[i] = cycle + 1;
        ++entries_;
        return std::nullopt;
      }
      if (log_[slot - 1] == fp) return static_cast<i64>(slot - 1);
    }
  }

  [[nodiscard]] const std::vector<u64>& log() const noexcept { return log_; }

 private:
  void grow() {
    std::vector<Index> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(64, 2 * old.size()), 0);
    log_.reserve(slots_.size() / 2);  // room for the entries the table now takes
    const std::size_t mask = slots_.size() - 1;
    for (const Index slot : old) {
      if (slot == 0) continue;
      std::size_t i = static_cast<std::size_t>(log_[slot - 1]) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<u64> log_;
  std::vector<Index> slots_;
  std::size_t entries_ = 0;
};

template <typename Index, detail::Fingerprint kKind>
SteadyState search(const MemoryConfig& config, const std::vector<StreamConfig>& streams,
                   i64 max_cycles) {
  const auto wall_start = std::chrono::steady_clock::now();
  MemorySystem mem{config, streams};
  Fingerprinter fingerprint{mem};
  FingerprintLog<Index> index;
  const auto visit = [&](const MemorySystem& m) {
    return index.visit(kKind == detail::Fingerprint::exact ? fingerprint(m) : 0);
  };

  // The repeated state's first visit, settled by replay: a fresh machine
  // is stepped through the earlier cycles that share the fingerprint,
  // oldest first, until its dense key equals the current one.  A
  // collision finds no equal key and the search goes on.  At most one
  // earlier state can be equal, since none repeated before now().
  i64 transient = -1;
  i64 replayed = 0;
  std::vector<PortStats> first_stats;
  const auto confirm = [&](const MemorySystem& m, i64 candidate) {
    const std::vector<u64>& log = index.log();
    const u64 fp = log.back();
    const std::vector<i64> key = m.state_key();
    MemorySystem replay{config, streams};
    for (i64 t = candidate; t < m.now(); ++t) {
      if (log[static_cast<std::size_t>(t)] != fp) continue;
      replayed += replay.run(t - replay.now(), /*stop_when_finished=*/false);
      if (replay.state_key() == key) {
        transient = t;
        first_stats = replay.all_stats();
        return true;
      }
    }
    return false;
  };

  (void)visit(mem);
  drive(mem, Watchdog{.max_cycles = max_cycles, .livelock_factor = 0},
        {.until_finished = false}, [&](const MemorySystem& m) {
          fingerprint.after_step(m);
          const std::optional<i64> candidate = visit(m);
          return candidate.has_value() && confirm(m, *candidate);
        });
  if (transient < 0) {
    throw Error{ErrorCode::deadline_exceeded,
                "find_steady_state: no cyclic state within max_cycles"};
  }

  const std::vector<PortStats> now_stats = mem.all_stats();
  SteadyState out;
  out.transient_cycles = transient;
  out.period = mem.now() - transient;
  out.grants_in_period.reserve(now_stats.size());
  i64 total_grants = 0;
  for (std::size_t i = 0; i < now_stats.size(); ++i) {
    const PortStats d = delta(now_stats[i], first_stats[i]);
    out.grants_in_period.push_back(d.grants);
    total_grants += d.grants;
    out.per_port.push_back(Rational{d.grants, out.period});
    out.conflicts_in_period.bank += d.bank_conflicts;
    out.conflicts_in_period.simultaneous += d.simultaneous_conflicts;
    out.conflicts_in_period.section += d.section_conflicts;
    out.conflicts_in_period.fault += d.fault_conflicts;
    out.per_port_delta.push_back(d);
  }
  out.bandwidth = Rational{total_grants, out.period};
  out.cycles_simulated = mem.now() + replayed;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return out;
}

}  // namespace

namespace detail {

template <Fingerprint kKind>
SteadyState find_steady_state(const MemoryConfig& config,
                              const std::vector<StreamConfig>& streams, i64 max_cycles) {
  for (const auto& s : streams) {
    if (s.length != kInfiniteLength) {
      throw Error{ErrorCode::config_invalid, "find_steady_state: all streams must be infinite"};
    }
  }
  // Cycles 0..max_cycles are logged; a 32-bit slot holds cycle + 1.
  return max_cycles < i64{std::numeric_limits<std::uint32_t>::max()}
             ? search<std::uint32_t, kKind>(config, streams, max_cycles)
             : search<std::uint64_t, kKind>(config, streams, max_cycles);
}

template SteadyState find_steady_state<Fingerprint::exact>(const MemoryConfig&,
                                                           const std::vector<StreamConfig>&,
                                                           i64);
template SteadyState find_steady_state<Fingerprint::collide_all>(
    const MemoryConfig&, const std::vector<StreamConfig>&, i64);

}  // namespace detail

SteadyState find_steady_state(const MemoryConfig& config,
                              const std::vector<StreamConfig>& streams, i64 max_cycles) {
  return detail::find_steady_state<detail::Fingerprint::exact>(config, streams, max_cycles);
}

OffsetSweep sweep_start_offsets(const MemoryConfig& config, i64 d1, i64 d2, bool same_cpu,
                                i64 max_cycles) {
  OffsetSweep sweep;
  sweep.by_offset.reserve(static_cast<std::size_t>(config.banks));
  for (i64 b2 = 0; b2 < config.banks; ++b2) {
    const SteadyState ss =
        find_steady_state(config, two_streams(0, d1, b2, d2, same_cpu), max_cycles);
    sweep.cycles_simulated += ss.cycles_simulated;
    sweep.wall_seconds += ss.wall_seconds;
    sweep.by_offset.push_back(ss.bandwidth);
    if (b2 == 0) {
      sweep.min_bandwidth = ss.bandwidth;
      sweep.max_bandwidth = ss.bandwidth;
    } else {
      sweep.min_bandwidth = std::min(sweep.min_bandwidth, ss.bandwidth);
      sweep.max_bandwidth = std::max(sweep.max_bandwidth, ss.bandwidth);
    }
  }
  return sweep;
}

}  // namespace vpmem::sim
