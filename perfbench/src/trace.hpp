// Span recording for the traced benchmark run.
//
// The benchmark wraps each call it makes into a vpmem layer in a Span.
// Spans nest: a span opened while another is open is its child, and a
// layer's self time is its spans' durations minus the part covered by
// child spans.  Only per-layer sums are kept; a disabled recorder makes
// every Span a no-op, so the untraced run pays one branch per call.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <vector>

namespace vpbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The vpmem layers host time is attributed to (named after the modules).
enum class Layer : std::size_t {
  sim_step,          ///< MemorySystem::step replays
  sim_steady_state,  ///< sim::find_steady_state
  sim_run,           ///< sim::run_to_completion / measure_bandwidth
  obs,               ///< report_run, RunReport::to_json, Tracer
  exec,              ///< exec::run_campaign (minus the job closures)
  json,              ///< Json building, dump and parse
  xmp,               ///< xmp::run_kernel / run_kernel_multitasked
  check,             ///< check::check_case, ReferenceModel::run
  count,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::count);

[[nodiscard]] const char* layer_name(Layer layer);

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_{enabled} {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void open(Layer layer);
  /// Close the innermost span; returns its duration in seconds.
  double close();

  [[nodiscard]] double self_seconds(Layer layer) const {
    return self_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] double total_self_seconds() const;

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    double child_seconds = 0.0;
  };
  bool enabled_;
  std::vector<Frame> stack_;
  std::array<double, kLayerCount> self_{};
};

/// RAII span: opens on construction, closes on stop() or destruction.
class Span {
 public:
  Span(SpanRecorder& recorder, Layer layer) : recorder_{recorder} {
    if (recorder_.enabled()) {
      recorder_.open(layer);
      open_ = true;
    }
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  /// Close now; returns the duration in seconds (0 when tracing is off).
  double stop() {
    if (!open_) return 0.0;
    open_ = false;
    return recorder_.close();
  }

 private:
  SpanRecorder& recorder_;
  bool open_ = false;
};

}  // namespace vpbench
