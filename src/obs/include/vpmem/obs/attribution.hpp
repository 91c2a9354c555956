// Conflict attribution: folds the simulator's event stream into
// per-(stream, bank, conflict-kind) lost-cycle matrices, stream-vs-stream
// blame counts, barrier-episode detection and a windowed b_eff(t) time
// series.  This is the "which stream loses which cycle to which conflict"
// instrumentation behind Theorems 3-7: every delayed clock period is
// charged to the bank it stalled on, the conflict kind of that period,
// and the stream that held the contended resource.
//
// The same fold recounts the run's statistics from the events alone:
// per-port grants, first/last grant cycle and stall runs, per-bank grants
// and the stall-length histogram.  The per-kind conflict counters are row
// sums of the lost-cycle matrix, so nothing is counted twice.  Because the
// fold never reads the simulator's own counters, port_stats() equaling
// MemorySystem::all_stats() is a real invariant check (the obs tests and
// check's collector_totals on the paper's configurations).
//
// The fold is online — observe() is O(1) per event and the state is
// O(ports x banks), independent of run length — and rides an EventBuffer
// chunk sink (sim::EventRecorder, obs::Tracer), so it never loses
// precision when a bounded trace buffer evicts old events.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "vpmem/obs/metrics.hpp"
#include "vpmem/sim/config.hpp"
#include "vpmem/sim/event.hpp"
#include "vpmem/sim/event_buffer.hpp"
#include "vpmem/util/json.hpp"

namespace vpmem::obs {

/// Current value of the "schema" member emitted by
/// ConflictAttribution::to_json().
inline constexpr const char* kAttributionSchema = "vpmem.attribution/1";

/// One detected barrier episode: a maximal run of delayed periods of one
/// stream in which consecutive stalls are separated by at most the merge
/// gap.  In a paper barrier-situation (Fig. 3, Theorems 4/6/7) the
/// delayed stream re-enters the barrier every return, so the whole
/// steady-state loss pattern folds into a single episode whose onset is
/// the first contended period.
struct BarrierEpisode {
  std::size_t port = 0;        ///< the delayed stream
  i64 onset = 0;               ///< first delayed clock period
  i64 last = 0;                ///< last delayed clock period
  i64 lost_cycles = 0;         ///< delayed periods inside the episode
  std::vector<i64> banks;      ///< participating banks, ascending
  sim::ConflictTotals kinds;   ///< lost cycles by conflict kind

  /// Clock periods spanned (first to last delay, inclusive).
  [[nodiscard]] i64 length() const noexcept { return last - onset + 1; }
};

/// One sample of the windowed effective-bandwidth time series.
struct BandwidthSample {
  i64 start = 0;     ///< first clock period of the window
  i64 cycles = 0;    ///< periods covered (the final window may be partial)
  i64 grants = 0;    ///< grants inside the window
  [[nodiscard]] double b_eff() const noexcept {
    return cycles > 0 ? static_cast<double>(grants) / static_cast<double>(cycles) : 0.0;
  }
};

struct AttributionOptions {
  /// Width of the b_eff(t) window in clock periods.
  i64 window = 64;
  /// Two stalls of one stream separated by more than this many periods
  /// start a new episode; <= 0 means the bank cycle time nc (one service
  /// period — merges the recurring stalls of a barrier-situation, splits
  /// unrelated transients).
  i64 episode_gap = 0;
  /// Safety cap on recorded episodes; further ones are counted but not
  /// stored (episodes_truncated() reports how many).
  std::size_t max_episodes = 4096;
};

/// Online event-stream analyzer.  Feed events in emission order as an
/// EventBuffer chunk sink (or replay a recorded buffer), then
/// finalize(end_cycle) once the run's observation window closes.
class ConflictAttribution {
 public:
  explicit ConflictAttribution(const sim::MemoryConfig& config, AttributionOptions options = {});

  /// Fold a batch of recorded events, in order.  Events must arrive in
  /// non-decreasing cycle order.  Throws std::logic_error after
  /// finalize().
  void observe(std::span<const sim::PackedEvent> events);

  /// Close open episodes, open stall runs and the final (possibly
  /// partial) b_eff window, and fill registry().  `end_cycle` is the
  /// exclusive end of the observed window; `ports` pads port_stats() to
  /// the run's port count (a port that never produced an event still
  /// exists, with all-zero stats).  Idempotent; observe() must not be
  /// called afterwards.
  void finalize(i64 end_cycle, std::size_t ports = 0);

  [[nodiscard]] std::size_t port_count() const noexcept { return ports_.size(); }

  /// Lost cycles of `port` at `bank` due to conflicts of kind `k`.
  [[nodiscard]] i64 lost_cycles(std::size_t port, i64 bank, sim::ConflictKind kind) const;
  /// Row sum over banks: must equal the stream's PortStats delay counter
  /// of the same kind.
  [[nodiscard]] i64 lost_cycles(std::size_t port, sim::ConflictKind kind) const;
  /// All three row sums of one stream; equals the stream's PortStats
  /// {bank,simultaneous,section}_conflicts field-for-field.
  [[nodiscard]] sim::ConflictTotals totals(std::size_t port) const;
  /// Lost cycles of `port` charged to `blocker` (the stream that held the
  /// contended bank or path; the port itself for self conflicts).  Sums
  /// over blockers to totals(port).total().
  [[nodiscard]] i64 blocked_by(std::size_t port, std::size_t blocker) const;

  /// Detected episodes, in onset order (valid after finalize()).
  [[nodiscard]] const std::vector<BarrierEpisode>& episodes() const noexcept { return episodes_; }
  /// Episodes dropped by the max_episodes cap.
  [[nodiscard]] i64 episodes_truncated() const noexcept { return episodes_truncated_; }

  /// The b_eff(t) series (valid after finalize()).
  [[nodiscard]] const std::vector<BandwidthSample>& bandwidth_series() const noexcept {
    return series_;
  }

  [[nodiscard]] i64 window() const noexcept { return options_.window; }
  [[nodiscard]] i64 end_cycle() const noexcept { return end_cycle_; }
  [[nodiscard]] i64 total_grants() const noexcept { return total_grants_; }

  /// Per-port statistics recounted from events alone (conflict counters
  /// are the lost-cycle row sums).  After finalize(end, ports) it matches
  /// MemorySystem::all_stats() field-for-field.
  [[nodiscard]] std::vector<sim::PortStats> port_stats() const;

  /// Grants per bank, recounted from events.
  [[nodiscard]] const std::vector<i64>& bank_grants() const noexcept { return bank_grants_; }

  /// Distribution of stall-run lengths in clock periods, including the
  /// runs still open at the end (valid after finalize()).
  [[nodiscard]] const Histogram& stall_lengths() const noexcept { return stall_lengths_; }

  /// The run's metrics, filled by finalize():
  ///   counters   grants, conflicts.bank / .simultaneous / .section / .fault
  ///   histograms stall_length, bank_grants (distribution of per-bank
  ///              grant counts)
  ///   gauges     bank_utilization, hottest_bank — registered at 0; the
  ///              bank-level view lives in the engine, so the caller sets
  ///              them (report_run does).
  [[nodiscard]] const MetricsRegistry& registry() const noexcept { return registry_; }
  [[nodiscard]] MetricsRegistry& registry() noexcept { return registry_; }

  /// The metrics block: registry().to_json() plus per-port ("ports") and
  /// per-bank ("bank_grants_by_bank") breakdowns.
  [[nodiscard]] Json metrics_json() const;

  /// The attribution summary block (schema vpmem.attribution/1): grand
  /// totals, per-port lost-cycle matrices (non-zero banks only),
  /// stream-vs-stream blame, episodes and the b_eff(t) series.
  [[nodiscard]] Json to_json() const;

 private:
  /// PortFold::open.last while no episode is open: far enough in the past
  /// that any delay is more than the merge gap after it, without overflow.
  static constexpr i64 kNoEpisode = std::numeric_limits<i64>::min() / 2;

  struct PortFold {
    /// banks * kConflictKinds lost-cycle cells, indexed
    /// bank * kConflictKinds + kind.  Per-kind and grand totals are row
    /// sums over this — the observe() hot path keeps exactly one counter
    /// per (bank, kind).
    std::vector<i64> by_bank_kind;
    std::vector<i64> by_blocker;  ///< grown to the highest blocker seen
    /// The open episode; open.last == kNoEpisode when none is open.  Its
    /// lost cycles and kinds are kept in open_kinds (kind-indexed, no
    /// switch on the hot path) and summed when it closes.
    BarrierEpisode open{.last = kNoEpisode, .banks = {}, .kinds = {}};
    std::array<i64, sim::kConflictKinds> open_kinds{};
    /// Per-bank "already in the open episode" flags — keeps the banks list
    /// deduplicated in O(1) per conflict (sorted only on close).
    std::vector<std::uint8_t> bank_in_episode;
  };

  void grow_ports(std::size_t port);
  void close_episode(PortFold& fold);
  void enter_window(i64 cycle);
  void fold_conflict(PortFold& fold, const sim::PackedEvent& e, i64 gap);
  [[nodiscard]] sim::ConflictTotals grand_totals() const;

  sim::MemoryConfig config_;
  AttributionOptions options_;
  i64 gap_;
  std::vector<PortFold> ports_;  ///< grown to the highest port with a conflict
  /// Event-derived per-port statistics, grown to the highest port seen.
  /// The conflict counters stay 0 here (port_stats() fills them from the
  /// row sums), and longest_stall covers completed stall runs only.
  std::vector<sim::PortStats> stats_;
  std::vector<i64> bank_grants_;
  /// Completed stall runs shorter than kShortStalls, counted by length
  /// (index 0 counts the grants no stall preceded); finalize() adds them
  /// to stall_lengths_, which takes the longer runs as they end.
  static constexpr i64 kShortStalls = 64;
  std::array<i64, kShortStalls> short_stalls_{};
  Histogram stall_lengths_;
  MetricsRegistry registry_;  ///< built by finalize()
  /// A closed episode kept for episodes(), stored flat so that closing
  /// one allocates nothing; its banks are closed_banks_[banks_begin,
  /// banks_end).  finalize() builds episodes_ from these.
  struct ClosedEpisode {
    std::size_t port = 0;
    i64 onset = 0;
    i64 last = 0;
    i64 lost_cycles = 0;
    std::array<i64, sim::kConflictKinds> kinds{};
    std::size_t banks_begin = 0;
    std::size_t banks_end = 0;
  };
  std::vector<ClosedEpisode> closed_;  ///< the first max_episodes, closing order
  std::vector<i64> closed_banks_;
  std::vector<BarrierEpisode> episodes_;  ///< built by finalize()
  std::vector<BandwidthSample> series_;  ///< built by finalize()
  i64 episodes_truncated_ = 0;
  // b_eff(t) fold: grants per window, advanced as cycles pass.  The
  // cursor caches the window holding the last grant so the hot path
  // avoids a division per event.
  std::vector<i64> window_grants_;
  std::size_t cur_window_ = 0;
  i64 window_end_ = 0;  ///< exclusive end of the cached window
  i64 total_grants_ = 0;
  i64 last_cycle_ = -1;  ///< highest cycle observed
  i64 end_cycle_ = -1;   ///< set by finalize()
  bool finalized_ = false;
};

}  // namespace vpmem::obs
