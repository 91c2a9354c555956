// Clock-diagram rendering in the notation of the paper's Figs. 2-9:
// one row per bank, one column per clock period, where
//   '1'..'9'  bank active servicing that stream (nc consecutive periods),
//   '.'       bank idle,
//   '<'       a higher-numbered stream is delayed at this bank this period,
//   '>'       a lower-numbered stream is delayed at this bank this period,
//   '*'       the delay is a section (access-path) conflict.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "vpmem/sim/event.hpp"
#include "vpmem/sim/event_buffer.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/util/numeric.hpp"

namespace vpmem::trace {

/// Records simulator events and renders the paper's clock diagrams.
/// Attach before running; render any window afterwards.
///
/// The recording lives in a bounded sim::EventBuffer.  By default the
/// Timeline owns a fresh buffer; pass a shared one (e.g. from
/// obs::Tracer::share_buffer()) to render diagrams from a run that is
/// already being traced without storing the event stream twice.
class Timeline {
 public:
  /// Record into a private buffer (capacity sim::EventBuffer defaults).
  explicit Timeline(sim::MemorySystem& mem);

  /// Read from `buffer` without attaching a recorder: some other observer
  /// (an EventRecorder or a Tracer) fills it.  Windows older than the
  /// buffer's retention render as idle.
  Timeline(sim::MemorySystem& mem, std::shared_ptr<sim::EventBuffer> buffer);

  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;
  Timeline(Timeline&&) = delete;
  Timeline& operator=(Timeline&&) = delete;
  ~Timeline();

  /// All retained events in emission order, unpacked from the buffer.
  [[nodiscard]] std::vector<sim::Event> events() const { return buffer_->events(); }

  /// The backing store (shared with any co-observers).
  [[nodiscard]] const sim::EventBuffer& buffer() const noexcept { return *buffer_; }

  /// Render clock periods [from, to) as the paper's diagram.  When
  /// `show_sections` is set, rows are labelled "section - bank" as in
  /// Figs. 7-9.
  [[nodiscard]] std::string render(i64 from, i64 to, bool show_sections = false) const;

  /// The raw character grid (rows = banks) without labels, e.g. for tests
  /// asserting on exact patterns.
  [[nodiscard]] std::vector<std::string> grid(i64 from, i64 to) const;

  /// Machine-readable event dump (cycle, type, port, bank, element,
  /// conflict kind, blocker) for external plotting.
  void events_csv(std::ostream& os) const;

 private:
  sim::MemorySystem& mem_;
  std::shared_ptr<sim::EventBuffer> buffer_;
  /// Present only when this Timeline records for itself (first ctor).
  std::unique_ptr<sim::EventRecorder> recorder_;
};

/// One-shot helper: simulate `streams` on `config` for `cycles` periods
/// and return the rendered diagram of that window.
[[nodiscard]] std::string render_run(const sim::MemoryConfig& config,
                                     const std::vector<sim::StreamConfig>& streams, i64 cycles,
                                     bool show_sections = false);

}  // namespace vpmem::trace
