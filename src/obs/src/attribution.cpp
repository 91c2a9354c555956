#include "vpmem/obs/attribution.hpp"

#include <algorithm>
#include <stdexcept>

#include "vpmem/obs/report.hpp"

namespace vpmem::obs {

ConflictAttribution::ConflictAttribution(const sim::MemoryConfig& config,
                                         AttributionOptions options)
    : config_{config},
      options_{options},
      gap_{options.episode_gap > 0 ? options.episode_gap : config.bank_cycle},
      bank_grants_(static_cast<std::size_t>(config.banks), 0) {
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

void ConflictAttribution::close_episode(PortFold& fold) {
  const i64 last = fold.open.last;
  if (last == kNoEpisode) return;
  fold.open.last = kNoEpisode;
  for (const i64 bank : fold.open.banks) {
    fold.bank_in_episode[static_cast<std::size_t>(bank)] = 0;
  }
  if (closed_.size() < options_.max_episodes) {
    const std::size_t begin = closed_banks_.size();
    closed_banks_.insert(closed_banks_.end(), fold.open.banks.begin(), fold.open.banks.end());
    const auto& kinds = fold.open_kinds;
    closed_.push_back(ClosedEpisode{.port = fold.open.port,
                                    .onset = fold.open.onset,
                                    .last = last,
                                    .lost_cycles = kinds[0] + kinds[1] + kinds[2] + kinds[3],
                                    .kinds = kinds,
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

inline void ConflictAttribution::fold_conflict(PortFold& fold, const sim::PackedEvent& e,
                                               i64 gap) {
  const i64 cycle = e.cycle;
  const auto bank = static_cast<std::size_t>(e.bank);
  const auto kind = static_cast<std::size_t>(e.kind - 1);
  const std::size_t blocker = e.blocker;
  // The (bank, kind) matrix is the only per-kind store on the hot path;
  // by-kind and grand totals are row sums computed at query time.
  ++fold.by_bank_kind[bank * sim::kConflictKinds + kind];
  if (blocker >= fold.by_blocker.size()) [[unlikely]] fold.by_blocker.resize(blocker + 1, 0);
  ++fold.by_blocker[blocker];

  // Episode tracking: merge stalls separated by at most gap_ periods.  With
  // no episode open, open.last is kNoEpisode, far enough in the past that
  // the same test opens one.
  if (cycle - fold.open.last > gap) [[unlikely]] {
    close_episode(fold);
    fold.open.port = e.port;
    fold.open.onset = cycle;
    fold.open_kinds = {};
  }
  fold.open.last = cycle;
  ++fold.open_kinds[kind];  // indexed, not switched: the mix is unpredictable
  std::uint8_t& seen = fold.bank_in_episode[bank];
  if (seen == 0) {
    seen = 1;
    fold.open.banks.push_back(e.bank);  // sorted when the episode closes
  }
}

void ConflictAttribution::observe(std::span<const sim::PackedEvent> events) {
  if (finalized_) throw std::logic_error{"ConflictAttribution: observe() after finalize()"};
  if (events.empty()) return;
  // Hot scalars and table pointers live in locals: as members, every store
  // through a stats or grant-count reference could alias them and force a
  // reload (and a size division per bounds check).
  const auto window = static_cast<std::uint64_t>(options_.window);
  i64 window_end = window_end_;
  i64* const bank_grants = bank_grants_.data();
  const i64 gap = gap_;
  i64* const short_stalls = short_stalls_.data();
  sim::PortStats* stats_data = stats_.data();
  std::size_t stats_size = stats_.size();
  PortFold* folds = ports_.data();
  std::size_t fold_count = ports_.size();
  i64 pending = 0;  ///< grants of window cur_window_ not yet added
  const auto add_pending = [&] {
    window_grants_[cur_window_] += pending;
    total_grants_ += pending;
    pending = 0;
  };
  for (const sim::PackedEvent& p : events) {
    const std::size_t port = p.port;
    if (port >= stats_size) [[unlikely]] {
      stats_.resize(port + 1);
      stats_data = stats_.data();
      stats_size = stats_.size();
    }
    sim::PortStats& stats = stats_data[port];
    if (p.kind != 0) {
      if (port >= fold_count) [[unlikely]] {
        grow_ports(port);
        folds = ports_.data();
        fold_count = ports_.size();
      }
      fold_conflict(folds[port], p, gap);
      ++stats.current_stall;
      continue;
    }
    // The current b_eff(t) window is cached; the division only runs when
    // a grant's cycle leaves it (either side, in one unsigned compare).
    if (static_cast<std::uint64_t>(window_end - 1 - p.cycle) >= window) [[unlikely]] {
      if (pending != 0) add_pending();
      enter_window(p.cycle);
      window_end = window_end_;
    }
    ++pending;
    ++stats.grants;
    if (stats.first_grant_cycle < 0) stats.first_grant_cycle = p.cycle;
    stats.last_grant_cycle = p.cycle;
    // The stall run this grant ends (0: none): short ones are counted by
    // length, without a histogram update per grant.
    const i64 stall = stats.current_stall;
    if (stall < kShortStalls) [[likely]] {
      ++short_stalls[stall];
    } else {
      stall_lengths_.record(stall);
    }
    stats.longest_stall = std::max(stats.longest_stall, stall);
    stats.current_stall = 0;
    ++bank_grants[p.bank];
  }
  if (pending != 0) add_pending();
  last_cycle_ = std::max(last_cycle_, events.back().cycle);
}

void ConflictAttribution::finalize(i64 end_cycle, std::size_t ports) {
  if (finalized_) return;
  finalized_ = true;
  end_cycle_ = std::max(end_cycle, last_cycle_ + 1);
  if (stats_.size() < ports) stats_.resize(ports);
  // A stall run still open when the window closes counts as a sample too:
  // a port parked behind a barrier would otherwise vanish from the
  // histogram entirely.
  for (const sim::PortStats& p : stats_) {
    if (p.current_stall > 0) stall_lengths_.record(p.current_stall);
  }
  for (i64 length = 1; length < kShortStalls; ++length) {
    const i64 runs = short_stalls_[static_cast<std::size_t>(length)];
    if (runs > 0) stall_lengths_.record(length, runs);
  }
  // Registered in a fixed order, so the metrics block serializes stably
  // even when a run produces no events of some kind.
  const sim::ConflictTotals grand = grand_totals();
  registry_.counter("grants").inc(total_grants_);
  registry_.counter("conflicts.bank").inc(grand.bank);
  registry_.counter("conflicts.simultaneous").inc(grand.simultaneous);
  registry_.counter("conflicts.section").inc(grand.section);
  registry_.counter("conflicts.fault").inc(grand.fault);
  registry_.histogram("stall_length") = stall_lengths_;
  Histogram& per_bank = registry_.histogram("bank_grants");
  for (const i64 g : bank_grants_) per_bank.record(g);
  registry_.gauge("bank_utilization");
  registry_.gauge("hottest_bank");

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

sim::ConflictTotals ConflictAttribution::grand_totals() const {
  sim::ConflictTotals grand;
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    const sim::ConflictTotals t = totals(p);
    grand.bank += t.bank;
    grand.simultaneous += t.simultaneous;
    grand.section += t.section;
    grand.fault += t.fault;
  }
  return grand;
}

std::vector<sim::PortStats> ConflictAttribution::port_stats() const {
  std::vector<sim::PortStats> out = stats_;
  for (std::size_t p = 0; p < out.size(); ++p) {
    // The fold folds a stall run into longest_stall when it ends; the
    // engine counts the open run too.
    out[p].longest_stall = std::max(out[p].longest_stall, out[p].current_stall);
    const sim::ConflictTotals t = totals(p);
    out[p].bank_conflicts = t.bank;
    out[p].simultaneous_conflicts = t.simultaneous;
    out[p].section_conflicts = t.section;
    out[p].fault_conflicts = t.fault;
  }
  return out;
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

  out["lost_cycles"] = json_of(grand_totals());
  out["grants"] = total_grants_;

  Json per_port = Json::array();
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    const PortFold& fold = ports_[p];
    Json entry = Json::object();
    entry["port"] = p;
    entry["lost_cycles"] = json_of(totals(p));
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
    entry["kinds"] = json_of(ep.kinds);
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

Json ConflictAttribution::metrics_json() const {
  Json out = registry_.to_json();
  Json ports = Json::array();
  for (const sim::PortStats& p : port_stats()) ports.push_back(json_of(p));
  out["ports"] = std::move(ports);
  Json banks = Json::array();
  for (const i64 g : bank_grants_) banks.push_back(g);
  out["bank_grants_by_bank"] = std::move(banks);
  return out;
}

}  // namespace vpmem::obs
