#include "vpmem/obs/tracer.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace vpmem::obs {

Tracer::Tracer(sim::MemorySystem& mem, TracerOptions options)
    : mem_{mem},
      options_{options},
      buffer_{std::make_shared<sim::EventBuffer>(options.capacity)} {
  if (options_.attribution) {
    attribution_ = std::make_unique<ConflictAttribution>(
        mem.config(),
        AttributionOptions{.window = options_.window, .episode_gap = options_.episode_gap});
  }
  if (ConflictAttribution* attribution = attribution_.get()) {
    buffer_->set_chunk_sink(
        [attribution](std::span<const sim::PackedEvent> events) { attribution->observe(events); });
  }
  mem_.add_recorder(*buffer_);
  attached_ = true;
}

Tracer::~Tracer() { finish(); }

void Tracer::finish() {
  if (attached_) {
    mem_.remove_recorder(*buffer_);
    buffer_->flush();
    buffer_->set_chunk_sink(nullptr);
    attached_ = false;
  }
  if (finished_) return;
  finished_ = true;
  if (attribution_) attribution_->finalize(mem_.now(), mem_.port_count());
}

namespace {

/// Chrome trace-event pids: one synthetic process per track family.
constexpr i64 kBankPid = 1;
constexpr i64 kPortPid = 2;

Json meta_event(i64 pid, i64 tid, const char* what, std::string name) {
  Json e = Json::object();
  e["ph"] = "M";
  e["name"] = what;
  e["pid"] = pid;
  e["tid"] = tid;
  Json args = Json::object();
  args["name"] = std::move(name);
  e["args"] = std::move(args);
  return e;
}

std::string port_label(const sim::MemorySystem& mem, std::size_t p) {
  const sim::StreamConfig& s = mem.stream(p);
  std::ostringstream os;
  os << "port " << (p + 1) << " (cpu " << s.cpu;
  if (s.has_pattern()) {
    os << ", pattern[" << s.bank_pattern.size() << "]";
  } else {
    os << ", b=" << s.start_bank << ", d=" << s.distance;
  }
  os << ")";
  return os.str();
}

}  // namespace

Json Tracer::chrome_trace() {
  finish();
  const sim::MemoryConfig& cfg = mem_.config();
  Json events = Json::array();

  // Track naming: one row per bank (labelled with its section, as in the
  // paper's Figs. 7-9) and one per port.
  events.push_back(meta_event(kBankPid, 0, "process_name", "banks"));
  for (i64 bank = 0; bank < cfg.banks; ++bank) {
    std::ostringstream os;
    os << "bank " << bank;
    if (cfg.sections != cfg.banks) os << " (section " << cfg.section_of(bank) << ")";
    events.push_back(meta_event(kBankPid, bank, "thread_name", os.str()));
  }
  events.push_back(meta_event(kPortPid, 0, "process_name", "ports"));
  for (std::size_t p = 0; p < mem_.port_count(); ++p) {
    events.push_back(
        meta_event(kPortPid, static_cast<i64>(p), "thread_name", port_label(mem_, p)));
  }

  buffer_->for_each([&](const sim::Event& e) {
    if (e.type == sim::Event::Type::grant) {
      // Service slice on the bank track (the bank stays active nc
      // periods) ...
      Json service = Json::object();
      service["ph"] = "X";
      service["name"] = "port " + std::to_string(e.port + 1);
      service["cat"] = "service";
      service["pid"] = kBankPid;
      service["tid"] = e.bank;
      service["ts"] = e.cycle;
      service["dur"] = cfg.bank_cycle;
      Json args = Json::object();
      args["port"] = e.port;
      args["element"] = e.element;
      service["args"] = std::move(args);
      events.push_back(std::move(service));
      // ... and a one-period transfer slice on the port track.
      Json xfer = Json::object();
      xfer["ph"] = "X";
      xfer["name"] = "grant";
      xfer["cat"] = "grant";
      xfer["pid"] = kPortPid;
      xfer["tid"] = static_cast<i64>(e.port);
      xfer["ts"] = e.cycle;
      xfer["dur"] = 1;
      Json xargs = Json::object();
      xargs["bank"] = e.bank;
      xargs["element"] = e.element;
      xfer["args"] = std::move(xargs);
      events.push_back(std::move(xfer));
      return;
    }
    // Conflict instant on the delayed port's track, carrying the full
    // attribution payload.
    Json instant = Json::object();
    instant["ph"] = "i";
    instant["name"] = sim::to_string(e.conflict) + " conflict";
    instant["cat"] = "conflict";
    instant["pid"] = kPortPid;
    instant["tid"] = static_cast<i64>(e.port);
    instant["ts"] = e.cycle;
    instant["s"] = "t";  // thread-scoped marker
    Json args = Json::object();
    args["kind"] = sim::to_string(e.conflict);
    args["bank"] = e.bank;
    args["element"] = e.element;
    args["blocker"] = e.blocker;
    instant["args"] = std::move(args);
    events.push_back(std::move(instant));
  });

  // The live perf trajectory: windowed b_eff as a counter track.
  if (attribution_) {
    for (const BandwidthSample& s : attribution_->bandwidth_series()) {
      Json counter = Json::object();
      counter["ph"] = "C";
      counter["name"] = "b_eff";
      counter["pid"] = kPortPid;
      counter["ts"] = s.start;
      Json args = Json::object();
      args["grants_per_cycle"] = s.b_eff();
      counter["args"] = std::move(args);
      events.push_back(std::move(counter));
    }
  }

  Json doc = Json::object();
  doc["schema"] = kTraceSchema;
  doc["displayTimeUnit"] = "ms";
  doc["traceEvents"] = std::move(events);

  Json other = Json::object();
  Json config = Json::object();
  config["banks"] = cfg.banks;
  config["sections"] = cfg.sections;
  config["bank_cycle"] = cfg.bank_cycle;
  config["mapping"] = to_string(cfg.mapping);
  config["priority"] = to_string(cfg.priority);
  other["config"] = std::move(config);
  other["ports"] = mem_.port_count();
  other["cycles"] = mem_.now();
  other["events_recorded"] = buffer_->recorded();
  other["events_retained"] = buffer_->size();
  other["events_dropped"] = buffer_->dropped();
  other["first_retained_cycle"] = buffer_->first_cycle();
  other["time_unit"] = "1 trace us = 1 clock period";
  other["attribution"] = attribution_ ? attribution_->to_json() : Json{};
  doc["otherData"] = std::move(other);
  return doc;
}

void Tracer::write_chrome_trace(std::ostream& os) {
  chrome_trace().dump(os, 1);
  os << '\n';
}

void Tracer::save_chrome_trace(const std::string& path) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"Tracer::save_chrome_trace: cannot open '" + path + "'"};
  write_chrome_trace(out);
}

}  // namespace vpmem::obs
