// The cycle-level engine: banks, sections, paths, ports and the per-clock
// arbitration implementing dynamic conflict resolution (Section II).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "vpmem/sim/config.hpp"
#include "vpmem/sim/event.hpp"
#include "vpmem/sim/fault.hpp"
#include "vpmem/util/json.hpp"
#include "vpmem/util/numeric.hpp"

namespace vpmem::sim {

class EventBuffer;

/// Current value of the "schema" member emitted by SystemState::to_json().
inline constexpr const char* kCheckpointSchema = "vpmem.checkpoint/1";

/// A complete snapshot of a MemorySystem mid-run: configuration, fault
/// plan (with its application cursor and the dynamic fault state), every
/// port's stream + progress + statistics, bank occupancy and the priority
/// rotation.  Restoring it into a fresh MemorySystem (the SystemState
/// constructor) continues the run cycle-for-cycle identically — long
/// sweeps checkpoint to JSON and resume after interruption.  Recorders
/// are not part of the state; reattach them after restoring.
struct SystemState {
  MemoryConfig config;
  FaultPlan plan;
  std::vector<StreamConfig> streams;
  std::vector<i64> issued;       ///< per-port elements granted
  std::vector<PortStats> stats;  ///< per-port counters (incl. current_stall)
  std::vector<i64> bank_free_at;
  std::vector<i64> bank_grants;
  std::vector<i64> bank_owner;  ///< -1 = no grant yet
  i64 now = 0;
  i64 rr = 0;
  // Dynamic fault state (all empty/zero when the plan is empty).
  i64 plan_cursor = 0;                        ///< plan events already applied
  std::vector<std::uint8_t> bank_online;      ///< empty == all online
  std::vector<i64> bank_nc;                   ///< empty == config.bank_cycle
  std::vector<i64> bank_stall_until;          ///< empty == no windows
  std::vector<std::pair<i64, i64>> paths_down;  ///< active (cpu, section) outages

  /// Schema vpmem.checkpoint/1.
  [[nodiscard]] Json to_json() const;

  /// Inverse of to_json(); throws vpmem::Error{config_invalid} on schema
  /// mismatch or malformed input.
  [[nodiscard]] static SystemState from_json(const Json& json);
};

/// Cycle-accurate simulator of an m-way interleaved, sectioned memory
/// accessed by constant-stride ports.
///
/// Per clock period, requesting ports are visited in priority order; a
/// port is granted iff (a) no higher-priority port claimed its target bank
/// this period, (b) the bank is inactive, and (c) its access path — the
/// (CPU, section) pair — is unclaimed this period.  Otherwise the port is
/// delayed one period (together with all its subsequent requests) and the
/// delay is classified as a bank, simultaneous-bank or section conflict
/// exactly as in Section II.
///
/// Ports may be added while the simulation runs (add_stream); the Cray
/// X-MP driver uses this to issue chained vector instructions whose start
/// times depend on earlier instructions' progress.
///
/// Cost model: one step() visits only the *live* ports (unfinished, in
/// ascending index order) and resets only the bank and path claims it
/// granted, so it costs O(live ports + grants) — independent of m and of
/// how many finished ports were ever added.  A port leaves the live list
/// after the step in which it transfers its last element.
class MemorySystem {
 public:
  /// `streams` may be empty; ports can be injected later via add_stream
  /// (the X-MP drivers issue vector instructions as dependencies clear).
  /// An optional FaultPlan degrades the machine over time (see fault.hpp
  /// for the exact semantics); it is validated against `config`.
  MemorySystem(MemoryConfig config, std::vector<StreamConfig> streams, FaultPlan plan = {});

  /// Restore a checkpoint()ed state; the run continues cycle-for-cycle
  /// identically.  Recorders are not restored.
  explicit MemorySystem(const SystemState& state);

  /// Append a port mid-run.  `start_cycle` must be >= now().  Under fixed
  /// priority the new port ranks below all existing ones.  Returns its
  /// port index.
  std::size_t add_stream(const StreamConfig& stream);

  /// Advance the clock by one period.
  void step();

  /// Run `cycles` periods (or until finished() for finite streams when
  /// `stop_when_finished`).  Returns periods actually simulated.
  i64 run(i64 cycles, bool stop_when_finished = true);

  /// All finite-length streams have transferred all their elements.
  [[nodiscard]] bool finished() const noexcept { return live_.empty(); }

  /// The (bank, access path) pairs granted by the most recent step(), in
  /// grant order (empty before the first one): sim::drive detects
  /// progress from its size, and find_steady_state tracks the busy banks
  /// from it without scanning all m.
  [[nodiscard]] std::span<const std::pair<std::size_t, std::size_t>> last_step_grants()
      const noexcept {
    return granted_;
  }

  /// Ports that have not finished yet (the ones step() visits).
  [[nodiscard]] std::size_t live_port_count() const noexcept { return live_.size(); }

  /// Port visits made by step() since construction (or restore): the sum
  /// of live_port_count() over every simulated period.  A deterministic
  /// work counter, not part of the checkpointed state.
  [[nodiscard]] i64 ports_visited() const noexcept { return ports_visited_; }

  [[nodiscard]] i64 now() const noexcept { return now_; }
  [[nodiscard]] const MemoryConfig& config() const noexcept { return config_; }
  [[nodiscard]] const FaultPlan& fault_plan() const noexcept { return plan_; }

  /// Bank currently accepts requests (not taken offline by a fault).
  [[nodiscard]] bool bank_online(i64 bank) const;

  /// Number of online banks, m' (== banks when no fault plan is active).
  [[nodiscard]] i64 surviving_banks() const noexcept {
    return static_cast<i64>(surviving_.size());
  }

  /// Snapshot the complete machine state (see SystemState).
  [[nodiscard]] SystemState checkpoint() const;
  [[nodiscard]] std::size_t port_count() const noexcept { return ports_.size(); }
  [[nodiscard]] const StreamConfig& stream(std::size_t port) const;
  [[nodiscard]] const PortStats& port_stats(std::size_t port) const;
  [[nodiscard]] std::vector<PortStats> all_stats() const;

  /// Elements granted so far on `port`.  Inline, like next_bank():
  /// find_steady_state reads both for every port every cycle.
  [[nodiscard]] i64 elements_done(std::size_t port) const { return ports_.at(port).issued; }

  /// True once `port` has transferred all its elements.
  [[nodiscard]] bool port_done(std::size_t port) const;

  /// Bank the port will request next (nullopt once the stream finished).
  [[nodiscard]] std::optional<i64> next_bank(std::size_t port) const {
    const PortState& p = ports_.at(port);
    if (p.done()) return std::nullopt;
    return p.bank;
  }

  /// Remaining active periods of `bank` (0 == inactive).
  [[nodiscard]] i64 bank_busy(i64 bank) const;

  /// Grants served by `bank` so far.
  [[nodiscard]] i64 bank_grants(i64 bank) const;

  /// Fraction of elapsed bank-periods spent active, over all banks
  /// (grants * nc, clipped at now()): 1.0 means every bank was busy every
  /// period.  0 before the first step.
  [[nodiscard]] double bank_utilization() const;

  /// The bank with the most grants so far (ties: lowest address).
  [[nodiscard]] i64 hottest_bank() const;

  /// Number of recorders currently attached.
  [[nodiscard]] std::size_t recorder_count() const noexcept;

  /// Append every grant/conflict event to `buffer` (inline, in emission
  /// order) until remove_recorder.  This is the only way to observe a
  /// run: EventRecorder binds a buffer for its lifetime, and consumers
  /// that fold the stream (obs::ConflictAttribution, the differential
  /// check) read it through EventBuffer::set_chunk_sink.  Several
  /// recorders may be attached at once; they are pushed in attachment
  /// order.  `buffer` must outlive its attachment.
  void add_recorder(EventBuffer& buffer);

  /// Detach `buffer` (no-op if it is not attached).
  void remove_recorder(const EventBuffer& buffer);

  /// Opaque encoding of the machine state that determines all future
  /// behaviour of *infinite* streams (per-port phase, bank busy times,
  /// rotation of the cyclic priority).  Equal keys => identical futures.
  /// This is the one exact definition of state: find_steady_state()
  /// hashes a sparse fingerprint of the same fields every cycle and calls
  /// state_key() only to confirm a fingerprint hit, so a hash collision
  /// never decides a result.  O(m + p) time and space per call.  Only
  /// defined for a plan-free machine: throws Error{config_invalid} when
  /// the machine carries a fault plan.
  [[nodiscard]] std::vector<i64> state_key() const;

 private:
  struct PortState {
    StreamConfig cfg;
    i64 issued = 0;  ///< elements granted so far
    PortStats stats;
    /// Bank of request `issued` (cfg.bank_of(issued, m)), advanced on
    /// every grant: affine streams add `stride`, patterns look it up.
    i64 bank = 0;
    i64 stride = 0;  ///< distance mod m (affine streams)
    [[nodiscard]] bool done() const noexcept { return issued >= cfg.length; }
  };

  void init_fault_state();
  void apply_due_faults();
  void rebuild_surviving();
  void rebuild_live();
  void advance(PortState& port) const;
  [[nodiscard]] i64 effective_bank(const PortState& port) const;
  [[nodiscard]] bool path_down(i64 cpu, i64 section) const;

  MemoryConfig config_;
  FaultPlan plan_;
  std::vector<PortState> ports_;
  std::vector<std::size_t> live_;  ///< unfinished ports, ascending
  i64 ports_visited_ = 0;
  std::vector<i64> section_of_;    ///< config_.section_of(bank), per bank
  std::vector<i64> bank_free_at_;  ///< absolute cycle the bank becomes inactive
  std::vector<i64> bank_grants_;   ///< grants served per bank
  std::vector<std::size_t> bank_owner_;  ///< port of the latest grant per bank
                                         ///< (bank-conflict blocker payload)
  i64 now_ = 0;
  i64 max_cpu_ = 0;
  std::size_t rr_ = 0;  ///< highest-priority port under PriorityRule::cyclic
  std::vector<EventBuffer*> recorders_;
  // Per-step scratch (members to avoid per-cycle allocation).  Only the
  // entries granted in a step are claimed; `granted_` lists them as
  // (bank, path) so the next step resets just those.
  std::vector<std::size_t> bank_claim_;
  std::vector<std::size_t> path_claim_;
  std::vector<std::pair<std::size_t, std::size_t>> granted_;
  // Dynamic fault state, advanced by apply_due_faults() at the start of
  // every step.  All-healthy when the plan is empty (the hot path then
  // only pays one cursor comparison).
  std::size_t plan_cursor_ = 0;               ///< next plan event to apply
  std::vector<std::uint8_t> bank_online_;     ///< 1 = accepts requests
  std::vector<i64> bank_nc_;                  ///< per-bank effective cycle time
  std::vector<i64> bank_stall_until_;         ///< exclusive end of stall window
  std::vector<std::pair<i64, i64>> paths_down_;  ///< active (cpu, section) outages
  std::vector<i64> surviving_;                ///< online banks, ascending
};

}  // namespace vpmem::sim
