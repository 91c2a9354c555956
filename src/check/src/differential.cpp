#include "vpmem/check/differential.hpp"

#include <sstream>

#include "vpmem/sim/event_buffer.hpp"
#include "vpmem/sim/memory_system.hpp"

namespace vpmem::check {

namespace {

std::string describe(const sim::Event& e) {
  std::ostringstream os;
  os << (e.type == sim::Event::Type::grant ? "grant" : "conflict") << " cycle=" << e.cycle
     << " port=" << e.port << " bank=" << e.bank << " element=" << e.element;
  if (e.type == sim::Event::Type::conflict) {
    os << " kind=" << sim::to_string(e.conflict) << " blocker=" << e.blocker;
  }
  return os.str();
}

bool same_event(const sim::Event& a, const sim::Event& b) {
  if (a.type != b.type || a.cycle != b.cycle || a.port != b.port || a.bank != b.bank ||
      a.element != b.element) {
    return false;
  }
  // Classification and blocker only carry meaning for conflicts.
  return a.type == sim::Event::Type::grant ||
         (a.conflict == b.conflict && a.blocker == b.blocker);
}

std::string describe_stats(const sim::PortStats& s) {
  std::ostringstream os;
  os << "grants=" << s.grants << " bank=" << s.bank_conflicts
     << " simultaneous=" << s.simultaneous_conflicts << " section=" << s.section_conflicts
     << " fault=" << s.fault_conflicts << " first=" << s.first_grant_cycle
     << " last=" << s.last_grant_cycle << " longest_stall=" << s.longest_stall;
  return os.str();
}

bool same_stats(const sim::PortStats& a, const sim::PortStats& b) {
  return a.grants == b.grants && a.bank_conflicts == b.bank_conflicts &&
         a.simultaneous_conflicts == b.simultaneous_conflicts &&
         a.section_conflicts == b.section_conflicts &&
         a.fault_conflicts == b.fault_conflicts &&
         a.first_grant_cycle == b.first_grant_cycle &&
         a.last_grant_cycle == b.last_grant_cycle && a.longest_stall == b.longest_stall;
}

}  // namespace

DiffResult diff_run(const sim::MemoryConfig& config,
                    const std::vector<sim::StreamConfig>& streams, i64 cycles,
                    FaultKind fault) {
  return diff_run(config, streams, cycles, sim::FaultPlan{}, fault);
}

DiffResult diff_run(const sim::MemoryConfig& config,
                    const std::vector<sim::StreamConfig>& streams, i64 cycles,
                    const sim::FaultPlan& plan, FaultKind fault) {
  DiffResult out;

  sim::MemorySystem mem{config, streams, plan};
  ReferenceModel ref{config, streams, fault, plan};
  ref.run(cycles);
  const std::vector<sim::Event>& ref_events = ref.events();

  // Compare the simulator's events against the reference's as they are
  // recorded: no simulator event log is kept, and the first mismatch
  // (a divergence or an event beyond the reference's) stops the scan.
  std::size_t n = 0;  ///< simulator events matched so far
  sim::EventRecorder recorder{mem, nullptr, sim::sink_capacity(streams.size(), cycles)};
  recorder.buffer().set_chunk_sink([&](std::span<const sim::PackedEvent> events) {
    for (const sim::PackedEvent& packed : events) {
      if (!out.agreed) return;
      const sim::Event e = packed.unpack();
      if (n == ref_events.size()) {
        out.agreed = false;
        out.message = "simulator produced extra event " + std::to_string(n) + ": {" +
                      describe(e) + "}";
      } else if (!same_event(e, ref_events[n])) {
        out.agreed = false;
        out.message = "event " + std::to_string(n) + " diverges: sim {" + describe(e) +
                      "} vs reference {" + describe(ref_events[n]) + "}";
      } else {
        ++n;
      }
    }
  });
  mem.run(cycles, /*stop_when_finished=*/false);
  recorder.buffer().flush();
  out.events_compared = static_cast<i64>(n);
  if (!out.agreed) return out;
  if (n != ref_events.size()) {
    out.agreed = false;
    out.message = "reference produced extra event " + std::to_string(n) + ": {" +
                  describe(ref_events[n]) + "}";
    return out;
  }

  const std::vector<sim::PortStats> sim_stats = mem.all_stats();
  const std::vector<sim::PortStats> ref_stats = ref.stats();
  for (std::size_t p = 0; p < sim_stats.size(); ++p) {
    out.grants += sim_stats[p].grants;
    if (!same_stats(sim_stats[p], ref_stats[p])) {
      out.agreed = false;
      out.message = "port " + std::to_string(p) + " stats diverge: sim {" +
                    describe_stats(sim_stats[p]) + "} vs reference {" +
                    describe_stats(ref_stats[p]) + "}";
      return out;
    }
  }
  return out;
}

}  // namespace vpmem::check
