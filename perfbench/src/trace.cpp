#include "trace.hpp"

#include <numeric>
#include <stdexcept>

namespace vpbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::sim_step: return "sim.step";
    case Layer::sim_steady_state: return "sim.steady_state";
    case Layer::sim_run: return "sim.run";
    case Layer::obs: return "obs";
    case Layer::exec: return "exec";
    case Layer::json: return "json";
    case Layer::xmp: return "xmp";
    case Layer::check: return "check";
    case Layer::count: break;
  }
  return "?";
}

void SpanRecorder::open(Layer layer) { stack_.push_back(Frame{layer, Clock::now()}); }

double SpanRecorder::close() {
  if (stack_.empty()) throw std::logic_error{"SpanRecorder::close without an open span"};
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double duration = seconds_between(frame.start, Clock::now());
  self_[static_cast<std::size_t>(frame.layer)] += duration - frame.child_seconds;
  if (!stack_.empty()) stack_.back().child_seconds += duration;
  return duration;
}

double SpanRecorder::total_self_seconds() const {
  return std::accumulate(self_.begin(), self_.end(), 0.0);
}

}  // namespace vpbench
