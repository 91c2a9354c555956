#include "vpmem/check/fuzzer.hpp"

#include <algorithm>
#include <charconv>
#include <limits>

#include "vpmem/check/differential.hpp"
#include "vpmem/check/replay.hpp"
#include "vpmem/util/numeric.hpp"

namespace vpmem::check {

namespace {

using baseline::SplitMix64;

i64 pick(SplitMix64& rng, i64 bound) {
  return static_cast<i64>(rng.next_below(static_cast<std::uint64_t>(bound)));
}

/// Bank counts biased toward divisor-rich values (sections, disjoint
/// access sets) plus the paper's primes 13/17 and the degenerate m=1.
constexpr i64 kBankChoices[] = {1, 2, 3, 4, 5, 6, 8, 9, 12, 13, 16, 17, 24, 32};

sim::StreamConfig sample_stream(SplitMix64& rng, i64 m) {
  sim::StreamConfig s;
  s.cpu = pick(rng, 3);
  if (pick(rng, 8) == 0) {
    const i64 len = 1 + pick(rng, 8);
    s.bank_pattern.reserve(static_cast<std::size_t>(len));
    for (i64 k = 0; k < len; ++k) s.bank_pattern.push_back(pick(rng, m));
  } else {
    s.start_bank = pick(rng, m);
    s.distance = pick(rng, 4 * m + 1) - 2 * m;  // any sign, zero included
  }
  if (pick(rng, 5) >= 3) s.length = 1 + pick(rng, 128);
  if (pick(rng, 4) == 0) s.start_cycle = pick(rng, 9);
  return s;
}

/// Random timed degradation: 1-4 events over the first ~3/4 of the cycle
/// budget so recoveries (bank_online / path_online) actually replay
/// inside the differential window.
sim::FaultPlan sample_plan(SplitMix64& rng, const sim::MemoryConfig& config, i64 cycles) {
  sim::FaultPlan plan;
  plan.policy = rng.next_below(2) == 0 ? sim::FaultPolicy::stall
                                       : sim::FaultPolicy::remap_spare;
  const i64 n_events = 1 + pick(rng, 4);
  const i64 span = std::max<i64>(1, cycles * 3 / 4);
  std::vector<i64> at;
  at.reserve(static_cast<std::size_t>(n_events));
  for (i64 i = 0; i < n_events; ++i) at.push_back(pick(rng, span));
  std::sort(at.begin(), at.end());
  for (i64 i = 0; i < n_events; ++i) {
    sim::FaultEvent e;
    e.cycle = at[static_cast<std::size_t>(i)];
    switch (pick(rng, 6)) {
      case 0: e.kind = sim::FaultEvent::Kind::bank_offline; break;
      case 1: e.kind = sim::FaultEvent::Kind::bank_online; break;
      case 2: e.kind = sim::FaultEvent::Kind::bank_slow; break;
      case 3: e.kind = sim::FaultEvent::Kind::bank_stall; break;
      case 4: e.kind = sim::FaultEvent::Kind::path_offline; break;
      default: e.kind = sim::FaultEvent::Kind::path_online; break;
    }
    if (e.targets_bank()) {
      e.bank = pick(rng, config.banks);
      if (e.kind == sim::FaultEvent::Kind::bank_slow) e.value = 1 + pick(rng, 6);
      if (e.kind == sim::FaultEvent::Kind::bank_stall) e.value = 1 + pick(rng, 16);
    } else {
      e.cpu = pick(rng, 3);
      e.section = pick(rng, config.sections);
    }
    plan.events.push_back(e);
  }
  return plan;
}

}  // namespace

FuzzCase sample_case(SplitMix64& rng, const FuzzOptions& options) {
  FuzzCase out;
  out.cycles = options.cycles;
  out.fault = options.fault;

  const bool canonical = rng.next_below(2) == 0;
  if (canonical) {
    // The Section III-B shape the pair theorems are stated for: flat
    // memory, fixed priority, two affine infinite streams on two CPUs.
    i64 m = 1;
    while (m < 3) m = kBankChoices[pick(rng, static_cast<i64>(std::size(kBankChoices)))];
    out.config = sim::MemoryConfig{.banks = m, .sections = m,
                                   .bank_cycle = 1 + pick(rng, 6)};
    sim::StreamConfig s1;
    s1.start_bank = pick(rng, m);
    s1.distance = 1 + pick(rng, m - 1);
    sim::StreamConfig s2;
    s2.start_bank = pick(rng, m);
    s2.distance = 1 + pick(rng, m - 1);
    s2.cpu = 1;
    out.streams = {s1, s2};
    if (options.fault_plans) out.plan = sample_plan(rng, out.config, out.cycles);
    return out;
  }

  const i64 m = kBankChoices[pick(rng, static_cast<i64>(std::size(kBankChoices)))];
  const std::vector<i64> divs = divisors(m);
  // Bias toward the flat s = m memory (half the draws), else any divisor.
  const i64 s = rng.next_below(2) == 0 ? m : divs[static_cast<std::size_t>(pick(
                                             rng, static_cast<i64>(divs.size())))];
  out.config = sim::MemoryConfig{
      .banks = m,
      .sections = s,
      .bank_cycle = 1 + pick(rng, 6),
      .mapping = pick(rng, 4) == 0 ? sim::SectionMapping::consecutive
                                   : sim::SectionMapping::cyclic,
      .priority = pick(rng, 4) == 0 ? sim::PriorityRule::cyclic : sim::PriorityRule::fixed};
  const i64 ports = 1 + pick(rng, 4);
  out.streams.reserve(static_cast<std::size_t>(ports));
  for (i64 i = 0; i < ports; ++i) out.streams.push_back(sample_stream(rng, m));
  if (options.fault_plans) out.plan = sample_plan(rng, out.config, out.cycles);
  return out;
}

CaseResult check_case(const FuzzCase& fuzz_case, const InvariantOptions& invariants,
                      bool run_invariants) {
  CaseResult result;
  const DiffResult diff = diff_run(fuzz_case.config, fuzz_case.streams, fuzz_case.cycles,
                                   fuzz_case.plan, fuzz_case.fault);
  result.checks_run = 1;
  result.events_compared = diff.events_compared;
  if (!diff.agreed) result.failures.push_back({"differential", diff.message});

  // The analytic theorems assume a healthy machine; a degraded case is
  // checked by the differential comparison alone.
  if (run_invariants && fuzz_case.plan.empty()) {
    const InvariantReport report =
        check_invariants(fuzz_case.config, fuzz_case.streams, invariants);
    result.checks_run += static_cast<i64>(report.ran.size());
    for (const auto& f : report.failures) result.failures.push_back({f.name, f.detail});
  }
  return result;
}

namespace {

/// Build the reported failure for one failing case (shrinking included).
/// Pure function of the case and options, so sequential and sharded runs
/// produce byte-identical reports.
FuzzFailure build_failure(const FuzzCase& fuzz_case, const CaseResult& result, i64 iteration,
                          const FuzzOptions& options) {
  FuzzFailure failure;
  failure.iteration = iteration;
  failure.check = result.failures.front().check;
  failure.message = result.failures.front().message;
  failure.repro = encode_repro(fuzz_case);
  if (options.shrink_failures) {
    const std::string& check_name = failure.check;
    const FuzzCase shrunk = shrink_case(fuzz_case, [&](const FuzzCase& candidate) {
      const CaseResult r = check_case(candidate, options.invariants, options.run_invariants);
      for (const auto& f : r.failures) {
        if (f.check == check_name) return true;
      }
      return false;
    });
    failure.shrunk_repro = encode_repro(shrunk);
  }
  return failure;
}

bool cancelled(const FuzzOptions& options) {
  return options.cancel != nullptr && options.cancel->cancelled();
}

/// Sharded fuzzing.  Shard-order independence by construction: cases are
/// pre-sampled sequentially from the seed (sampling is a pure function
/// of the PRNG stream), workers check disjoint cases, and outcomes fold
/// back strictly in iteration order with the same early-stop rule as the
/// sequential loop — so the summary's counters, failures and shrunk
/// repros match the jobs=1 run exactly, at any worker count.
FuzzSummary fuzz_sharded(const FuzzOptions& options) {
  FuzzSummary summary;
  summary.seed = options.seed;
  SplitMix64 rng{options.seed};
  std::vector<FuzzCase> cases;
  cases.reserve(static_cast<std::size_t>(std::max<i64>(0, options.iterations)));
  for (i64 i = 0; i < options.iterations; ++i) cases.push_back(sample_case(rng, options));

  struct Slot {
    CaseResult result;
    FuzzFailure failure;
    bool done = false;
  };
  // Chunked dispatch: big enough to keep every worker busy, small enough
  // that the sequential early-stop (max_failures) doesn't run the whole
  // campaign for nothing.
  const i64 chunk = std::max<i64>(static_cast<i64>(options.jobs) * 8, 32);
  for (i64 begin = 0; begin < options.iterations; begin += chunk) {
    const i64 end = std::min(begin + chunk, options.iterations);
    std::vector<Slot> slots(static_cast<std::size_t>(end - begin));
    exec::parallel_for(
        end - begin, options.jobs,
        [&](i64 k, int /*worker*/) {
          const i64 iteration = begin + k;
          Slot& slot = slots[static_cast<std::size_t>(k)];
          const FuzzCase& fuzz_case = cases[static_cast<std::size_t>(iteration)];
          slot.result = check_case(fuzz_case, options.invariants, options.run_invariants);
          if (!slot.result.ok()) {
            slot.failure = build_failure(fuzz_case, slot.result, iteration, options);
          }
          slot.done = true;
        },
        options.cancel);
    // Fold in iteration order, reproducing the sequential loop's tally
    // and stopping rules exactly.
    for (auto& slot : slots) {
      if (!slot.done) {  // cancellation stopped dispatch mid-chunk
        summary.interrupted = true;
        return summary;
      }
      ++summary.iterations;
      summary.checks_run += slot.result.checks_run;
      summary.events_compared += slot.result.events_compared;
      if (slot.result.ok()) continue;
      summary.failures.push_back(std::move(slot.failure));
      if (summary.failures.size() >= options.max_failures) return summary;
    }
    if (cancelled(options)) {
      summary.interrupted = true;
      return summary;
    }
  }
  return summary;
}

}  // namespace

FuzzSummary fuzz(const FuzzOptions& options) {
  if (options.jobs > 1) return fuzz_sharded(options);
  FuzzSummary summary;
  summary.seed = options.seed;
  SplitMix64 rng{options.seed};

  for (i64 iteration = 0; iteration < options.iterations; ++iteration) {
    if (cancelled(options)) {
      summary.interrupted = true;
      break;
    }
    const FuzzCase fuzz_case = sample_case(rng, options);
    const CaseResult result = check_case(fuzz_case, options.invariants, options.run_invariants);
    ++summary.iterations;
    summary.checks_run += result.checks_run;
    summary.events_compared += result.events_compared;
    if (result.ok()) continue;

    summary.failures.push_back(build_failure(fuzz_case, result, iteration, options));
    if (summary.failures.size() >= options.max_failures) break;
  }
  return summary;
}

Json FuzzSummary::to_json() const {
  Json doc = Json::object();
  doc["schema"] = "vpmem.fuzz_summary/1";
  if (seed <= static_cast<std::uint64_t>(std::numeric_limits<i64>::max())) {
    doc["seed"] = static_cast<i64>(seed);
  } else {
    // Past i64, a JSON integer would wrap negative: write the "0x..." form
    // that --seed reads back.
    char hex[16];
    const auto [end, ec] = std::to_chars(hex, hex + sizeof hex, seed, 16);
    doc["seed"] = "0x" + std::string{hex, end};
  }
  doc["iterations"] = iterations;
  doc["checks_run"] = checks_run;
  doc["events_compared"] = events_compared;
  doc["ok"] = ok();
  doc["interrupted"] = interrupted;
  Json list = Json::array();
  for (const auto& f : failures) {
    Json entry = Json::object();
    entry["iteration"] = f.iteration;
    entry["check"] = f.check;
    entry["message"] = f.message;
    entry["repro"] = f.repro;
    entry["shrunk_repro"] = f.shrunk_repro;
    list.push_back(std::move(entry));
  }
  doc["failures"] = std::move(list);
  return doc;
}

}  // namespace vpmem::check
