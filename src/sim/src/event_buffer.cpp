#include "vpmem/sim/event_buffer.hpp"

#include <algorithm>

#include "vpmem/util/error.hpp"

namespace vpmem::sim {

EventBuffer::EventBuffer(std::size_t capacity)
    : capacity_{capacity == 0 ? kDefaultCapacity : capacity},
      chunk_events_{std::min(capacity_, kChunkEvents)} {
  // Round up to whole chunks so eviction keeps at least `capacity` events.
  capacity_ = ((capacity_ + chunk_events_ - 1) / chunk_events_) * chunk_events_;
  // Allocate and touch every slab now: the zero-fill faults the pages in,
  // so the per-event path never pays malloc or first-touch cost.
  for (std::size_t have = 0; have < capacity_; have += chunk_events_) {
    free_.push_back(std::make_unique<PackedEvent[]>(chunk_events_));
  }
}

void EventBuffer::new_chunk() {
  if (tail_ != nullptr) {
    flush();  // the full tail, before eviction can recycle it
    tail_->count = tail_fill();
    size_ += tail_->count;
    recorded_ += static_cast<i64>(tail_->count);
  }
  delivered_ = 0;
  Chunk next;
  if (size_ + chunk_events_ > capacity_ && !chunks_.empty()) {
    // Evict the oldest chunk but keep its slab: the warm ring runs
    // allocation-free.
    size_ -= chunks_.front().count;
    next = std::move(chunks_.front());
    next.count = 0;
    chunks_.pop_front();
  } else if (!free_.empty()) {
    next.data = std::move(free_.back());
    free_.pop_back();
  } else {
    next.data = std::make_unique_for_overwrite<PackedEvent[]>(chunk_events_);
  }
  chunks_.push_back(std::move(next));
  // deque never relocates surviving elements on push_back/pop_front, so
  // the cached tail pointer stays valid until the next new_chunk().
  tail_ = &chunks_.back();
  cursor_ = tail_->data.get();
  chunk_end_ = cursor_ + chunk_events_;
}

void EventBuffer::field_width_exceeded() {
  throw Error{ErrorCode::config_invalid, "EventBuffer::push: port/bank exceeds packed field width"};
}

i64 EventBuffer::first_cycle() const {
  if (empty()) return 0;
  return chunks_.front().data[0].cycle;
}

std::vector<Event> EventBuffer::events() const {
  std::vector<Event> out;
  out.reserve(size());
  for_each([&out](const Event& e) { out.push_back(e); });
  return out;
}

void EventBuffer::clear() {
  for (auto& chunk : chunks_) free_.push_back(std::move(chunk.data));
  chunks_.clear();
  tail_ = nullptr;
  cursor_ = nullptr;
  chunk_end_ = nullptr;
  size_ = 0;
  recorded_ = 0;
  delivered_ = 0;
}

void EventBuffer::set_chunk_sink(ChunkSink sink) {
  sink_ = std::move(sink);
  delivered_ = tail_fill();
}

void EventBuffer::flush() {
  const std::size_t fill = tail_fill();
  if (!sink_ || delivered_ == fill) return;
  sink_(std::span<const PackedEvent>{tail_->data.get() + delivered_, fill - delivered_});
  delivered_ = fill;
}

std::size_t sink_capacity(std::size_t ports, i64 cycles) noexcept {
  if (ports == 0 || cycles <= 0) return 1;
  constexpr std::size_t kChunk = EventBuffer::kChunkEvents;
  const auto per_port = static_cast<std::size_t>(cycles);
  // Compare before multiplying: a huge horizon must not overflow.
  return per_port > kChunk / ports ? kChunk : std::min(ports * per_port, kChunk);
}

EventRecorder::EventRecorder(MemorySystem& mem, std::shared_ptr<EventBuffer> buffer,
                             std::size_t capacity)
    : mem_{mem},
      buffer_{buffer ? std::move(buffer) : std::make_shared<EventBuffer>(capacity)},
      attached_{true} {
  mem_.add_recorder(*buffer_);
}

EventRecorder::~EventRecorder() { detach(); }

void EventRecorder::detach() {
  if (!attached_) return;
  mem_.remove_recorder(*buffer_);
  attached_ = false;
}

}  // namespace vpmem::sim
