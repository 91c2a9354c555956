#include "vpmem/sim/memory_system.hpp"

#include <algorithm>
#include <stdexcept>

#include "vpmem/sim/event_buffer.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::sim {

namespace {
constexpr std::size_t kFree = static_cast<std::size_t>(-1);
}

MemorySystem::MemorySystem(MemoryConfig config, std::vector<StreamConfig> streams,
                           FaultPlan plan)
    : config_{config},
      plan_{std::move(plan)},
      bank_free_at_(static_cast<std::size_t>(config.banks), 0),
      bank_grants_(static_cast<std::size_t>(config.banks), 0),
      bank_owner_(static_cast<std::size_t>(config.banks), kFree),
      bank_claim_(static_cast<std::size_t>(config.banks), kFree) {
  config_.validate();
  plan_.validate(config_);
  section_of_.resize(static_cast<std::size_t>(config_.banks));
  for (i64 bank = 0; bank < config_.banks; ++bank) {
    section_of_[static_cast<std::size_t>(bank)] = config_.section_of(bank);
  }
  init_fault_state();
  ports_.reserve(streams.size());
  for (const auto& s : streams) add_stream(s);
}

MemorySystem::MemorySystem(const SystemState& state)
    : MemorySystem{state.config, state.streams, state.plan} {
  if (state.issued.size() != ports_.size() || state.stats.size() != ports_.size()) {
    throw Error{ErrorCode::config_invalid,
                "MemorySystem: checkpoint port vectors disagree with streams"};
  }
  const auto banks = static_cast<std::size_t>(config_.banks);
  if (state.bank_free_at.size() != banks || state.bank_grants.size() != banks ||
      state.bank_owner.size() != banks) {
    throw Error{ErrorCode::config_invalid,
                "MemorySystem: checkpoint bank vectors disagree with config"};
  }
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (state.issued[i] < 0) {
      throw Error{ErrorCode::config_invalid, "MemorySystem: checkpoint issued count negative"};
    }
    ports_[i].issued = state.issued[i];
    ports_[i].stats = state.stats[i];
    ports_[i].bank = ports_[i].cfg.bank_of(ports_[i].issued, config_.banks);
  }
  rebuild_live();
  bank_free_at_ = state.bank_free_at;
  bank_grants_ = state.bank_grants;
  for (std::size_t j = 0; j < banks; ++j) {
    bank_owner_[j] =
        state.bank_owner[j] < 0 ? kFree : static_cast<std::size_t>(state.bank_owner[j]);
  }
  now_ = state.now;
  rr_ = static_cast<std::size_t>(state.rr);
  if (state.plan_cursor < 0 || state.plan_cursor > static_cast<i64>(plan_.events.size())) {
    throw Error{ErrorCode::config_invalid, "MemorySystem: checkpoint plan cursor out of range"};
  }
  plan_cursor_ = static_cast<std::size_t>(state.plan_cursor);
  if (!state.bank_online.empty()) {
    if (state.bank_online.size() != banks || state.bank_nc.size() != banks ||
        state.bank_stall_until.size() != banks) {
      throw Error{ErrorCode::config_invalid,
                  "MemorySystem: checkpoint fault vectors disagree with config"};
    }
    bank_online_ = state.bank_online;
    bank_nc_ = state.bank_nc;
    bank_stall_until_ = state.bank_stall_until;
    paths_down_ = state.paths_down;
    rebuild_surviving();
  }
}

void MemorySystem::init_fault_state() {
  const auto banks = static_cast<std::size_t>(config_.banks);
  bank_online_.assign(banks, 1);
  bank_nc_.assign(banks, config_.bank_cycle);
  bank_stall_until_.assign(banks, 0);
  paths_down_.clear();
  plan_cursor_ = 0;
  rebuild_surviving();
}

void MemorySystem::rebuild_surviving() {
  surviving_.clear();
  for (std::size_t j = 0; j < bank_online_.size(); ++j) {
    if (bank_online_[j] != 0) surviving_.push_back(static_cast<i64>(j));
  }
}

void MemorySystem::apply_due_faults() {
  bool topology_changed = false;
  while (plan_cursor_ < plan_.events.size() &&
         plan_.events[plan_cursor_].cycle <= now_) {
    const FaultEvent& e = plan_.events[plan_cursor_++];
    const auto bank_u = static_cast<std::size_t>(e.bank);
    switch (e.kind) {
      case FaultEvent::Kind::bank_offline:
        topology_changed = topology_changed || bank_online_[bank_u] != 0;
        bank_online_[bank_u] = 0;
        break;
      case FaultEvent::Kind::bank_online:
        topology_changed = topology_changed || bank_online_[bank_u] == 0;
        bank_online_[bank_u] = 1;
        break;
      case FaultEvent::Kind::bank_slow: bank_nc_[bank_u] = e.value; break;
      case FaultEvent::Kind::bank_stall:
        bank_stall_until_[bank_u] = std::max(bank_stall_until_[bank_u], e.cycle + e.value);
        break;
      case FaultEvent::Kind::path_offline: {
        const auto path = std::make_pair(e.cpu, e.section);
        if (std::find(paths_down_.begin(), paths_down_.end(), path) == paths_down_.end()) {
          paths_down_.push_back(path);
        }
        break;
      }
      case FaultEvent::Kind::path_online: {
        const auto path = std::make_pair(e.cpu, e.section);
        const auto it = std::find(paths_down_.begin(), paths_down_.end(), path);
        if (it != paths_down_.end()) paths_down_.erase(it);
        break;
      }
    }
  }
  if (topology_changed) rebuild_surviving();
}

bool MemorySystem::bank_online(i64 bank) const {
  if (bank < 0 || bank >= config_.banks) {
    throw std::out_of_range{"bank_online: bank out of range"};
  }
  return bank_online_[static_cast<std::size_t>(bank)] != 0;
}

bool MemorySystem::path_down(i64 cpu, i64 section) const {
  // Linear scan: concurrent path outages are rare and few.
  for (const auto& [c, s] : paths_down_) {
    if (c == cpu && s == section) return true;
  }
  return false;
}

void MemorySystem::rebuild_live() {
  live_.clear();
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (!ports_[i].done()) live_.push_back(i);
  }
}

void MemorySystem::advance(PortState& port) const {
  ++port.issued;
  if (port.cfg.has_pattern()) {
    port.bank = port.cfg.bank_of(port.issued, config_.banks);
  } else {
    port.bank = add_mod(port.bank, port.stride, config_.banks);
  }
}

i64 MemorySystem::effective_bank(const PortState& port) const {
  if (plan_.policy != FaultPolicy::remap_spare) return port.bank;
  const i64 alive = static_cast<i64>(surviving_.size());
  if (alive == config_.banks || alive == 0) return port.bank;
  // The interleave collapses onto the m' surviving banks: the stream's
  // bank sequence is re-addressed mod m' and looked up in the ascending
  // surviving list (fault.hpp documents this contract).  For affine
  // streams bank_of(k, m') is exactly (start + k*d) mod m'.
  const i64 slot = mod_norm(port.cfg.bank_of(port.issued, alive), alive);
  return surviving_[static_cast<std::size_t>(slot)];
}

std::size_t MemorySystem::add_stream(const StreamConfig& stream) {
  stream.validate(config_);
  if (stream.start_cycle < now_) {
    throw std::invalid_argument{"add_stream: start_cycle must not lie in the past"};
  }
  max_cpu_ = std::max(max_cpu_, stream.cpu);
  path_claim_.resize(static_cast<std::size_t>((max_cpu_ + 1) * config_.sections), kFree);
  PortState port;
  port.cfg = stream;
  port.bank = stream.bank_of(0, config_.banks);
  port.stride = mod_norm(stream.distance, config_.banks);
  ports_.push_back(std::move(port));
  // The new index is the largest, so the live list stays ascending.
  if (!ports_.back().done()) live_.push_back(ports_.size() - 1);
  return ports_.size() - 1;
}

const StreamConfig& MemorySystem::stream(std::size_t port) const { return ports_.at(port).cfg; }

const PortStats& MemorySystem::port_stats(std::size_t port) const {
  return ports_.at(port).stats;
}

std::vector<PortStats> MemorySystem::all_stats() const {
  std::vector<PortStats> out;
  out.reserve(ports_.size());
  for (const auto& p : ports_) out.push_back(p.stats);
  return out;
}

bool MemorySystem::port_done(std::size_t port) const { return ports_.at(port).done(); }

i64 MemorySystem::bank_busy(i64 bank) const {
  if (bank < 0 || bank >= config_.banks) throw std::out_of_range{"bank_busy: bank out of range"};
  return std::max<i64>(0, bank_free_at_[static_cast<std::size_t>(bank)] - now_);
}

i64 MemorySystem::bank_grants(i64 bank) const {
  if (bank < 0 || bank >= config_.banks) {
    throw std::out_of_range{"bank_grants: bank out of range"};
  }
  return bank_grants_[static_cast<std::size_t>(bank)];
}

double MemorySystem::bank_utilization() const {
  if (now_ == 0) return 0.0;
  i64 busy = 0;
  for (std::size_t j = 0; j < bank_grants_.size(); ++j) {
    // Grants keep a bank active nc periods each; clip the still-running
    // tail of the latest service at now().  Slow-bank faults can inflate
    // a single service beyond nc, so the per-bank figure is additionally
    // clipped at zero (utilization is approximate under bank_slow).
    busy += std::max<i64>(
        0, bank_grants_[j] * config_.bank_cycle - std::max<i64>(0, bank_free_at_[j] - now_));
  }
  return static_cast<double>(busy) / static_cast<double>(config_.banks * now_);
}

i64 MemorySystem::hottest_bank() const {
  std::size_t best = 0;
  for (std::size_t j = 1; j < bank_grants_.size(); ++j) {
    if (bank_grants_[j] > bank_grants_[best]) best = j;
  }
  return static_cast<i64>(best);
}

std::size_t MemorySystem::recorder_count() const noexcept { return recorders_.size(); }

void MemorySystem::add_recorder(EventBuffer& buffer) { recorders_.push_back(&buffer); }

void MemorySystem::remove_recorder(const EventBuffer& buffer) {
  const auto it = std::find(recorders_.begin(), recorders_.end(), &buffer);
  if (it != recorders_.end()) recorders_.erase(it);
}

void MemorySystem::step() {
  if (plan_cursor_ < plan_.events.size()) apply_due_faults();
  if (ports_.empty()) {  // ports may be injected later via add_stream
    ++now_;
    return;
  }
  // Release last step's claims: O(grants), not O(m).
  for (const auto& [bank, path] : granted_) {
    bank_claim_[bank] = kFree;
    path_claim_[path] = kFree;
  }
  granted_.clear();

  // Visit the live ports in priority order: ascending index, starting
  // under cyclic priority at the first live port >= rr_ mod p and
  // wrapping — the full-rotation order with finished ports left out.
  const std::size_t live = live_.size();
  std::size_t first = 0;
  if (config_.priority == PriorityRule::cyclic) {
    const std::size_t head = rr_ % ports_.size();
    first = static_cast<std::size_t>(std::lower_bound(live_.begin(), live_.end(), head) -
                                     live_.begin());
  }
  ports_visited_ += static_cast<i64>(live);
  bool any_finished = false;
  const bool observed = !recorders_.empty();

  for (std::size_t i = 0; i < live; ++i) {
    const std::size_t at = first + i;
    const std::size_t idx = live_[at < live ? at : at - live];
    PortState& port = ports_[idx];
    if (now_ < port.cfg.start_cycle) continue;

    const i64 bank = effective_bank(port);
    const auto bank_u = static_cast<std::size_t>(bank);
    const i64 section = section_of_[bank_u];
    // Events are only materialized for attached recorders.
    const auto emit = [&](Event::Type type, ConflictKind kind, std::size_t blocker) {
      if (!observed) return;
      const Event e{.type = type,
                    .cycle = now_,
                    .port = idx,
                    .bank = bank,
                    .element = port.issued,
                    .conflict = kind,
                    .blocker = blocker};
      for (EventBuffer* recorder : recorders_) recorder->push(e);
    };
    const auto delay = [&](std::int64_t& counter, ConflictKind kind, std::size_t blocker) {
      ++counter;
      port.stats.longest_stall = std::max(port.stats.longest_stall, ++port.stats.current_stall);
      emit(Event::Type::conflict, kind, blocker);
    };

    // (0) Injected faults pin the request before any arbitration: the
    //     target bank is offline (stall policy, or remap with no survivor
    //     left), sits inside a transient stall window, or the access path
    //     is down.  Kind `fault`, blocker = the requester itself.
    if (bank_online_[bank_u] == 0 || now_ < bank_stall_until_[bank_u] ||
        (!paths_down_.empty() && path_down(port.cfg.cpu, section))) {
      delay(port.stats.fault_conflicts, ConflictKind::fault, idx);
      continue;
    }

    // (1) Claimed this very period by a higher-priority port: a
    //     simultaneous bank conflict if the winner sits on another CPU
    //     (different access path), a section conflict otherwise.
    if (const std::size_t winner = bank_claim_[bank_u]; winner != kFree) {
      if (ports_[winner].cfg.cpu == port.cfg.cpu) {
        delay(port.stats.section_conflicts, ConflictKind::section, winner);
      } else {
        delay(port.stats.simultaneous_conflicts, ConflictKind::simultaneous, winner);
      }
      continue;
    }

    // (2) Bank still active from an earlier period: plain bank conflict.
    //     The blocker is the port whose grant keeps the bank busy (the
    //     requester itself for a self conflict).
    if (bank_free_at_[bank_u] > now_) {
      delay(port.stats.bank_conflicts, ConflictKind::bank, bank_owner_[bank_u]);
      continue;
    }

    // (3) Access path (CPU, section) already used this period.
    const auto path = static_cast<std::size_t>(port.cfg.cpu * config_.sections + section);
    if (path_claim_[path] != kFree) {
      delay(port.stats.section_conflicts, ConflictKind::section, path_claim_[path]);
      continue;
    }

    // Grant.
    bank_claim_[bank_u] = idx;
    path_claim_[path] = idx;
    granted_.emplace_back(bank_u, path);
    bank_free_at_[bank_u] = now_ + bank_nc_[bank_u];
    bank_owner_[bank_u] = idx;
    ++bank_grants_[bank_u];
    ++port.stats.grants;
    port.stats.current_stall = 0;
    if (port.stats.first_grant_cycle < 0) port.stats.first_grant_cycle = now_;
    port.stats.last_grant_cycle = now_;
    emit(Event::Type::grant, ConflictKind::bank, idx);
    advance(port);
    any_finished = any_finished || port.done();
  }

  if (any_finished) {
    std::erase_if(live_, [this](std::size_t idx) { return ports_[idx].done(); });
  }
  ++now_;
  if (config_.priority == PriorityRule::cyclic) rr_ = (rr_ + 1) % ports_.size();
}

i64 MemorySystem::run(i64 cycles, bool stop_when_finished) {
  i64 done = 0;
  for (; done < cycles; ++done) {
    if (stop_when_finished && finished()) break;
    step();
  }
  return done;
}

std::vector<i64> MemorySystem::state_key() const {
  if (!plan_.empty()) {
    // Pending events and the dynamic fault state tie the future to
    // absolute time, so equal keys would not mean equal futures.
    throw Error{ErrorCode::config_invalid, "state_key: the machine carries a fault plan"};
  }
  std::vector<i64> key;
  key.reserve(ports_.size() * 2 + bank_free_at_.size() + 1);
  for (const auto& p : ports_) {
    if (p.done()) {
      key.push_back(-2);  // finished
      key.push_back(0);
    } else if (p.cfg.has_pattern()) {
      // Pattern phase fully determines the future; offset past the bank
      // address domain so affine and pattern keys cannot collide.
      key.push_back(config_.banks + p.issued % static_cast<i64>(p.cfg.bank_pattern.size()));
      key.push_back(std::max<i64>(0, p.cfg.start_cycle - now_));
    } else {
      key.push_back(p.cfg.bank_of(p.issued, config_.banks));
      key.push_back(std::max<i64>(0, p.cfg.start_cycle - now_));  // not yet started
    }
  }
  for (i64 free_at : bank_free_at_) key.push_back(std::max<i64>(0, free_at - now_));
  key.push_back(ports_.empty() ? 0 : static_cast<i64>(rr_ % ports_.size()));
  return key;
}

SystemState MemorySystem::checkpoint() const {
  SystemState st;
  st.config = config_;
  st.plan = plan_;
  st.streams.reserve(ports_.size());
  st.issued.reserve(ports_.size());
  st.stats.reserve(ports_.size());
  for (const auto& p : ports_) {
    st.streams.push_back(p.cfg);
    st.issued.push_back(p.issued);
    st.stats.push_back(p.stats);
  }
  st.bank_free_at = bank_free_at_;
  st.bank_grants = bank_grants_;
  st.bank_owner.reserve(bank_owner_.size());
  for (std::size_t owner : bank_owner_) {
    st.bank_owner.push_back(owner == kFree ? -1 : static_cast<i64>(owner));
  }
  st.now = now_;
  st.rr = static_cast<i64>(rr_);
  st.plan_cursor = static_cast<i64>(plan_cursor_);
  if (!plan_.empty()) {
    st.bank_online = bank_online_;
    st.bank_nc = bank_nc_;
    st.bank_stall_until = bank_stall_until_;
    st.paths_down = paths_down_;
  }
  return st;
}

namespace {

[[noreturn]] void bad_checkpoint(const std::string& what) {
  throw Error{ErrorCode::config_invalid, "SystemState: " + what};
}

Json json_of_i64s(const std::vector<i64>& values) {
  Json out = Json::array();
  for (const i64 v : values) out.push_back(v);
  return out;
}

std::vector<i64> i64s_from_json(const Json& json) {
  std::vector<i64> out;
  for (const Json& v : json.as_array()) out.push_back(v.as_int());
  return out;
}

}  // namespace

Json SystemState::to_json() const {
  Json out = Json::object();
  out["schema"] = kCheckpointSchema;

  Json cfg = Json::object();
  cfg["banks"] = config.banks;
  cfg["sections"] = config.sections;
  cfg["bank_cycle"] = config.bank_cycle;
  cfg["mapping"] = to_string(config.mapping);
  cfg["priority"] = to_string(config.priority);
  out["config"] = std::move(cfg);

  out["fault_plan"] = plan.to_json();

  Json stream_list = Json::array();
  for (const StreamConfig& s : streams) {
    Json entry = Json::object();
    entry["start_bank"] = s.start_bank;
    entry["distance"] = s.distance;
    entry["cpu"] = s.cpu;
    entry["length"] = s.length == kInfiniteLength ? Json{nullptr} : Json{s.length};
    entry["start_cycle"] = s.start_cycle;
    entry["bank_pattern"] = json_of_i64s(s.bank_pattern);
    stream_list.push_back(std::move(entry));
  }
  out["streams"] = std::move(stream_list);

  out["issued"] = json_of_i64s(issued);
  Json stat_list = Json::array();
  for (const PortStats& p : stats) {
    Json entry = Json::object();
    entry["grants"] = p.grants;
    entry["bank_conflicts"] = p.bank_conflicts;
    entry["simultaneous_conflicts"] = p.simultaneous_conflicts;
    entry["section_conflicts"] = p.section_conflicts;
    entry["fault_conflicts"] = p.fault_conflicts;
    entry["first_grant_cycle"] = p.first_grant_cycle;
    entry["last_grant_cycle"] = p.last_grant_cycle;
    entry["longest_stall"] = p.longest_stall;
    entry["current_stall"] = p.current_stall;
    stat_list.push_back(std::move(entry));
  }
  out["stats"] = std::move(stat_list);

  out["bank_free_at"] = json_of_i64s(bank_free_at);
  out["bank_grants"] = json_of_i64s(bank_grants);
  out["bank_owner"] = json_of_i64s(bank_owner);
  out["now"] = now;
  out["rr"] = rr;
  out["plan_cursor"] = plan_cursor;

  std::vector<i64> online;
  online.reserve(bank_online.size());
  for (const std::uint8_t b : bank_online) online.push_back(b);
  out["bank_online"] = json_of_i64s(online);
  out["bank_nc"] = json_of_i64s(bank_nc);
  out["bank_stall_until"] = json_of_i64s(bank_stall_until);
  Json paths = Json::array();
  for (const auto& [c, s] : paths_down) {
    Json entry = Json::object();
    entry["cpu"] = c;
    entry["section"] = s;
    paths.push_back(std::move(entry));
  }
  out["paths_down"] = std::move(paths);
  return out;
}

SystemState SystemState::from_json(const Json& json) {
  try {
    if (!json.contains("schema") || json.at("schema").as_string() != kCheckpointSchema) {
      bad_checkpoint("unknown or missing schema");
    }
    SystemState st;
    const Json& cfg = json.at("config");
    st.config.banks = cfg.at("banks").as_int();
    st.config.sections = cfg.at("sections").as_int();
    st.config.bank_cycle = cfg.at("bank_cycle").as_int();
    const std::string mapping = cfg.at("mapping").as_string();
    if (mapping == to_string(SectionMapping::consecutive)) {
      st.config.mapping = SectionMapping::consecutive;
    } else if (mapping != to_string(SectionMapping::cyclic)) {
      bad_checkpoint("unknown section mapping '" + mapping + "'");
    }
    const std::string priority = cfg.at("priority").as_string();
    if (priority == to_string(PriorityRule::cyclic)) {
      st.config.priority = PriorityRule::cyclic;
    } else if (priority != to_string(PriorityRule::fixed)) {
      bad_checkpoint("unknown priority rule '" + priority + "'");
    }

    st.plan = FaultPlan::from_json(json.at("fault_plan"));

    for (const Json& s : json.at("streams").as_array()) {
      StreamConfig stream;
      stream.start_bank = s.at("start_bank").as_int();
      stream.distance = s.at("distance").as_int();
      stream.cpu = s.at("cpu").as_int();
      stream.length = s.at("length").is_null() ? kInfiniteLength : s.at("length").as_int();
      stream.start_cycle = s.at("start_cycle").as_int();
      stream.bank_pattern = i64s_from_json(s.at("bank_pattern"));
      st.streams.push_back(std::move(stream));
    }

    st.issued = i64s_from_json(json.at("issued"));
    for (const Json& p : json.at("stats").as_array()) {
      PortStats stats;
      stats.grants = p.at("grants").as_int();
      stats.bank_conflicts = p.at("bank_conflicts").as_int();
      stats.simultaneous_conflicts = p.at("simultaneous_conflicts").as_int();
      stats.section_conflicts = p.at("section_conflicts").as_int();
      stats.fault_conflicts = p.at("fault_conflicts").as_int();
      stats.first_grant_cycle = p.at("first_grant_cycle").as_int();
      stats.last_grant_cycle = p.at("last_grant_cycle").as_int();
      stats.longest_stall = p.at("longest_stall").as_int();
      stats.current_stall = p.at("current_stall").as_int();
      st.stats.push_back(stats);
    }

    st.bank_free_at = i64s_from_json(json.at("bank_free_at"));
    st.bank_grants = i64s_from_json(json.at("bank_grants"));
    st.bank_owner = i64s_from_json(json.at("bank_owner"));
    st.now = json.at("now").as_int();
    st.rr = json.at("rr").as_int();
    st.plan_cursor = json.at("plan_cursor").as_int();
    for (const i64 b : i64s_from_json(json.at("bank_online"))) {
      st.bank_online.push_back(b != 0 ? 1 : 0);
    }
    st.bank_nc = i64s_from_json(json.at("bank_nc"));
    st.bank_stall_until = i64s_from_json(json.at("bank_stall_until"));
    for (const Json& p : json.at("paths_down").as_array()) {
      st.paths_down.emplace_back(p.at("cpu").as_int(), p.at("section").as_int());
    }
    return st;
  } catch (const Error&) {
    throw;
  } catch (const std::exception& e) {  // missing member / wrong type
    bad_checkpoint(std::string{"malformed document: "} + e.what());
  }
}

}  // namespace vpmem::sim
