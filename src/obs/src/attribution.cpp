#include "vpmem/obs/attribution.hpp"

#include <algorithm>
#include <stdexcept>

namespace vpmem::obs {

namespace {

Json json_of_totals(const sim::ConflictTotals& t) {
  Json out = Json::object();
  out["bank"] = t.bank;
  out["simultaneous"] = t.simultaneous;
  out["section"] = t.section;
  out["fault"] = t.fault;
  out["total"] = t.total();
  return out;
}

}  // namespace

ConflictAttribution::ConflictAttribution(const sim::MemoryConfig& config,
                                         AttributionOptions options)
    : config_{config},
      options_{options},
      gap_{options.episode_gap > 0 ? options.episode_gap : config.bank_cycle} {
  if (options_.window <= 0) throw std::invalid_argument{"ConflictAttribution: window must be > 0"};
}

void ConflictAttribution::grow_ports(std::size_t port) {
  ports_.resize(port + 1);
  for (auto& f : ports_) {
    if (f.by_bank_kind.empty()) {
      f.by_bank_kind.assign(static_cast<std::size_t>(config_.banks) * sim::kConflictKinds, 0);
      f.bank_in_episode.assign(static_cast<std::size_t>(config_.banks), 0);
    }
  }
}

inline ConflictAttribution::PortFold& ConflictAttribution::fold_for(std::size_t port) {
  if (port >= ports_.size()) [[unlikely]] grow_ports(port);
  return ports_[port];
}

void ConflictAttribution::close_episode(PortFold& fold) {
  if (!fold.episode_open) return;
  fold.episode_open = false;
  for (const i64 bank : fold.open.banks) {
    fold.bank_in_episode[static_cast<std::size_t>(bank)] = 0;
  }
  if (closed_.size() < options_.max_episodes) {
    const std::size_t begin = closed_banks_.size();
    closed_banks_.insert(closed_banks_.end(), fold.open.banks.begin(), fold.open.banks.end());
    closed_.push_back(ClosedEpisode{.port = fold.open.port,
                                    .onset = fold.open.onset,
                                    .last = fold.open.last,
                                    .lost_cycles = fold.open.lost_cycles,
                                    .kinds = fold.open_kinds,
                                    .banks_begin = begin,
                                    .banks_end = closed_banks_.size()});
  } else {
    ++episodes_truncated_;
  }
  // Keep the banks list's capacity: barrier runs close an episode every
  // few dozen events.
  fold.open.banks.clear();
}

void ConflictAttribution::enter_window(i64 cycle) {
  const auto w = static_cast<std::size_t>(cycle / options_.window);
  if (w >= window_grants_.size()) window_grants_.resize(w + 1, 0);
  cur_window_ = w;
  window_end_ = (static_cast<i64>(w) + 1) * options_.window;
}

inline void ConflictAttribution::add_grants(i64& pending) {
  if (pending == 0) return;
  window_grants_[cur_window_] += pending;
  total_grants_ += pending;
  pending = 0;
}

inline void ConflictAttribution::fold_grant(i64 cycle, i64& pending) {
  // Events arrive in (mostly) non-decreasing cycle order, so the current
  // window is cached and the division only runs when the cycle leaves it.
  if (cycle >= window_end_ || cycle < window_end_ - options_.window) [[unlikely]] {
    add_grants(pending);
    enter_window(cycle);
  }
  ++pending;
}

inline void ConflictAttribution::fold_conflict(i64 cycle, std::size_t port, i64 bank,
                                               std::size_t kind, std::size_t blocker) {
  PortFold& fold = fold_for(port);
  // The (bank, kind) matrix is the only per-kind store on the hot path;
  // by-kind and grand totals are row sums computed at query time.
  ++fold.by_bank_kind[static_cast<std::size_t>(bank) * sim::kConflictKinds + kind];
  if (blocker >= fold.by_blocker.size()) [[unlikely]] fold.by_blocker.resize(blocker + 1, 0);
  ++fold.by_blocker[blocker];

  // Episode tracking: merge stalls separated by at most gap_ periods.
  if (fold.episode_open && cycle - fold.open.last > gap_) close_episode(fold);
  if (!fold.episode_open) {
    fold.episode_open = true;
    fold.open.port = port;
    fold.open.onset = cycle;
    fold.open.lost_cycles = 0;
    fold.open_kinds = {};
  }
  fold.open.last = cycle;
  ++fold.open.lost_cycles;
  ++fold.open_kinds[kind];  // indexed, not switched: the mix is unpredictable
  std::uint8_t& seen = fold.bank_in_episode[static_cast<std::size_t>(bank)];
  if (seen == 0) {
    seen = 1;
    fold.open.banks.push_back(bank);  // sorted when the episode closes
  }
}

void ConflictAttribution::observe(const sim::Event& e) {
  if (finalized_) throw std::logic_error{"ConflictAttribution: observe() after finalize()"};
  last_cycle_ = std::max(last_cycle_, e.cycle);
  if (e.type == sim::Event::Type::grant) {
    i64 pending = 0;
    fold_grant(e.cycle, pending);
    add_grants(pending);
  } else {
    fold_conflict(e.cycle, e.port, e.bank, static_cast<std::size_t>(e.conflict), e.blocker);
  }
}

void ConflictAttribution::observe(std::span<const sim::PackedEvent> events) {
  if (finalized_) throw std::logic_error{"ConflictAttribution: observe() after finalize()"};
  // The same fold as observe(Event), with the running maximum cycle and
  // the current window's grant count held in locals: as members they
  // would chain every event through a store and a reload.
  i64 last = last_cycle_;
  i64 pending = 0;
  for (const sim::PackedEvent& p : events) {
    last = std::max(last, p.cycle);
    if (p.kind == 0) {
      fold_grant(p.cycle, pending);
    } else {
      fold_conflict(p.cycle, p.port, p.bank, static_cast<std::size_t>(p.kind - 1), p.blocker);
    }
  }
  add_grants(pending);
  last_cycle_ = last;
}

void ConflictAttribution::finalize(i64 end_cycle) {
  if (finalized_) return;
  finalized_ = true;
  end_cycle_ = std::max(end_cycle, last_cycle_ + 1);
  for (auto& fold : ports_) close_episode(fold);
  episodes_.reserve(closed_.size());
  for (const ClosedEpisode& c : closed_) {
    BarrierEpisode ep;
    ep.port = c.port;
    ep.onset = c.onset;
    ep.last = c.last;
    ep.lost_cycles = c.lost_cycles;
    ep.banks.assign(closed_banks_.begin() + static_cast<std::ptrdiff_t>(c.banks_begin),
                    closed_banks_.begin() + static_cast<std::ptrdiff_t>(c.banks_end));
    std::sort(ep.banks.begin(), ep.banks.end());
    ep.kinds = sim::ConflictTotals{.bank = c.kinds[0],
                                   .simultaneous = c.kinds[1],
                                   .section = c.kinds[2],
                                   .fault = c.kinds[3]};
    episodes_.push_back(std::move(ep));
  }
  closed_ = {};
  closed_banks_ = {};
  // Ports close episodes independently: order them by onset, ties in
  // closing order.
  std::stable_sort(episodes_.begin(), episodes_.end(),
                   [](const BarrierEpisode& a, const BarrierEpisode& b) {
                     return a.onset < b.onset;
                   });

  // Materialize the b_eff(t) series, covering [0, end_cycle) even where
  // no grants landed.
  const i64 windows = (end_cycle_ + options_.window - 1) / options_.window;
  series_.clear();
  series_.reserve(static_cast<std::size_t>(std::max<i64>(windows, 0)));
  for (i64 w = 0; w < windows; ++w) {
    BandwidthSample s;
    s.start = w * options_.window;
    s.cycles = std::min(options_.window, end_cycle_ - s.start);
    s.grants = static_cast<std::size_t>(w) < window_grants_.size()
                   ? window_grants_[static_cast<std::size_t>(w)]
                   : 0;
    series_.push_back(s);
  }
}

i64 ConflictAttribution::lost_cycles(std::size_t port, i64 bank, sim::ConflictKind kind) const {
  if (port >= ports_.size()) return 0;
  if (bank < 0 || bank >= config_.banks) {
    throw std::out_of_range{"ConflictAttribution::lost_cycles: bank out of range"};
  }
  return ports_[port].by_bank_kind[static_cast<std::size_t>(bank) * sim::kConflictKinds +
                                   static_cast<std::size_t>(kind)];
}

i64 ConflictAttribution::lost_cycles(std::size_t port, sim::ConflictKind kind) const {
  if (port >= ports_.size()) return 0;
  const auto& cells = ports_[port].by_bank_kind;
  i64 sum = 0;
  for (std::size_t i = static_cast<std::size_t>(kind); i < cells.size();
       i += sim::kConflictKinds) {
    sum += cells[i];
  }
  return sum;
}

sim::ConflictTotals ConflictAttribution::totals(std::size_t port) const {
  sim::ConflictTotals t;
  t.bank = lost_cycles(port, sim::ConflictKind::bank);
  t.simultaneous = lost_cycles(port, sim::ConflictKind::simultaneous);
  t.section = lost_cycles(port, sim::ConflictKind::section);
  t.fault = lost_cycles(port, sim::ConflictKind::fault);
  return t;
}

i64 ConflictAttribution::blocked_by(std::size_t port, std::size_t blocker) const {
  if (port >= ports_.size()) return 0;
  const auto& by = ports_[port].by_blocker;
  return blocker < by.size() ? by[blocker] : 0;
}

Json ConflictAttribution::to_json() const {
  Json out = Json::object();
  out["schema"] = kAttributionSchema;
  out["window"] = options_.window;
  out["cycles"] = end_cycle_;

  sim::ConflictTotals grand;
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    const sim::ConflictTotals t = totals(p);
    grand.bank += t.bank;
    grand.simultaneous += t.simultaneous;
    grand.section += t.section;
    grand.fault += t.fault;
  }
  out["lost_cycles"] = json_of_totals(grand);
  out["grants"] = total_grants_;

  Json per_port = Json::array();
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    const PortFold& fold = ports_[p];
    Json entry = Json::object();
    entry["port"] = p;
    entry["lost_cycles"] = json_of_totals(totals(p));
    Json by_bank = Json::array();
    for (i64 bank = 0; bank < config_.banks; ++bank) {
      const std::size_t base = static_cast<std::size_t>(bank) * sim::kConflictKinds;
      const i64 b = fold.by_bank_kind[base];
      const i64 s = fold.by_bank_kind[base + 1];
      const i64 sec = fold.by_bank_kind[base + 2];
      const i64 flt = fold.by_bank_kind[base + 3];
      if (b + s + sec + flt == 0) continue;  // sparse: most banks never stall a stream
      Json cell = Json::object();
      cell["bank"] = bank;
      cell["bank_conflicts"] = b;
      cell["simultaneous_conflicts"] = s;
      cell["section_conflicts"] = sec;
      cell["fault_conflicts"] = flt;
      by_bank.push_back(std::move(cell));
    }
    entry["by_bank"] = std::move(by_bank);
    Json blame = Json::array();
    for (std::size_t b = 0; b < fold.by_blocker.size(); ++b) {
      if (fold.by_blocker[b] == 0) continue;
      Json cell = Json::object();
      cell["port"] = b;
      cell["cycles"] = fold.by_blocker[b];
      blame.push_back(std::move(cell));
    }
    entry["blocked_by"] = std::move(blame);
    per_port.push_back(std::move(entry));
  }
  out["per_port"] = std::move(per_port);

  Json episodes = Json::array();
  for (const BarrierEpisode& ep : episodes_) {
    Json entry = Json::object();
    entry["port"] = ep.port;
    entry["onset"] = ep.onset;
    entry["end"] = ep.last;
    entry["length"] = ep.length();
    entry["lost_cycles"] = ep.lost_cycles;
    Json banks = Json::array();
    for (const i64 b : ep.banks) banks.push_back(b);
    entry["banks"] = std::move(banks);
    entry["kinds"] = json_of_totals(ep.kinds);
    episodes.push_back(std::move(entry));
  }
  out["episodes"] = std::move(episodes);
  out["episodes_truncated"] = episodes_truncated_;

  Json series = Json::array();
  for (const BandwidthSample& s : series_) {
    Json sample = Json::object();
    sample["start"] = s.start;
    sample["cycles"] = s.cycles;
    sample["grants"] = s.grants;
    sample["b_eff"] = s.b_eff();
    series.push_back(std::move(sample));
  }
  Json beff = Json::object();
  beff["window"] = options_.window;
  beff["series"] = std::move(series);
  out["b_eff_windowed"] = std::move(beff);
  return out;
}

}  // namespace vpmem::obs
