// Bounded, chunked storage for the simulator's event stream.
//
// The event-hook multiplexer (memory_system.hpp) lets several observers
// watch one run, but each observer that *stores* events used to keep its
// own unbounded std::vector<Event>.  EventBuffer is the shared backing
// store for tracing v2: events are packed to 32 bytes, appended to
// fixed-size chunks, and the oldest chunk is recycled once the configured
// capacity is reached — memory stays bounded no matter how long the run
// is, and trace::Timeline plus obs::Tracer can read the same buffer
// instead of recording the stream twice.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "vpmem/sim/event.hpp"
#include "vpmem/sim/memory_system.hpp"

namespace vpmem::sim {

/// One retained event, packed to 32 bytes (sizeof(Event) is 48).  Field
/// widths cover every configuration the library accepts: bank indices fit
/// 32 bits and port counts 16 bits (an X-MP kernel at n = 4096 adds a few
/// hundred ports); EventBuffer::push checks the limits once per event.
struct PackedEvent {
  i64 cycle = 0;
  i64 element = 0;
  std::int32_t bank = 0;
  std::uint16_t port = 0;
  std::uint16_t blocker = 0;
  std::uint8_t kind = 0;  ///< 0 = grant, 1 + ConflictKind otherwise

  [[nodiscard]] Event unpack() const noexcept {
    Event e;
    e.type = kind == 0 ? Event::Type::grant : Event::Type::conflict;
    e.cycle = cycle;
    e.port = port;
    e.bank = bank;
    e.element = element;
    e.conflict = kind == 0 ? ConflictKind::bank : static_cast<ConflictKind>(kind - 1);
    e.blocker = blocker;
    return e;
  }
};

static_assert(sizeof(PackedEvent) == 32);

/// Chunked ring of PackedEvents.  push() is the tracing hot path: it
/// appends to the newest chunk and only touches the chunk list when a
/// chunk fills up.  Eviction drops whole chunks from the front, so the
/// retained window always covers the most recent events.  The whole ring
/// is allocated and pre-faulted by the constructor: push() never
/// allocates, so neither malloc stalls nor first-touch page faults land
/// inside the traced run.
class EventBuffer {
 public:
  /// Events per chunk; eviction granularity.
  static constexpr std::size_t kChunkEvents = 4096;
  /// Default retention: 256k events (8 MiB packed) — far beyond what a
  /// trace viewer renders comfortably, small enough to pre-fault eagerly.
  static constexpr std::size_t kDefaultCapacity = 1u << 18;

  /// `capacity` is rounded up to a whole number of chunks; 0 means
  /// kDefaultCapacity.
  explicit EventBuffer(std::size_t capacity = kDefaultCapacity);

  /// Record one event, evicting the oldest chunk when full.  Inline: this
  /// is the per-event cost of every traced run.
  void push(const Event& e) {
    if (e.port > std::numeric_limits<std::uint16_t>::max() ||
        e.blocker > std::numeric_limits<std::uint16_t>::max() ||
        e.bank > std::numeric_limits<std::int32_t>::max()) [[unlikely]] {
      field_width_exceeded();
    }
    if (cursor_ == chunk_end_) [[unlikely]] new_chunk();
    PackedEvent& p = *cursor_++;
    p.cycle = e.cycle;
    p.element = e.element;
    p.bank = static_cast<std::int32_t>(e.bank);
    p.port = static_cast<std::uint16_t>(e.port);
    p.blocker = static_cast<std::uint16_t>(e.blocker);
    p.kind = e.type == Event::Type::grant
                 ? std::uint8_t{0}
                 : static_cast<std::uint8_t>(1 + static_cast<int>(e.conflict));
  }

  /// Retained events (<= capacity()).
  [[nodiscard]] std::size_t size() const noexcept { return size_ + tail_fill(); }
  /// Events ever pushed, including evicted ones.
  [[nodiscard]] i64 recorded() const noexcept {
    return recorded_ + static_cast<i64>(tail_fill());
  }
  /// Events evicted to stay within capacity.
  [[nodiscard]] i64 dropped() const noexcept { return recorded_ - static_cast<i64>(size_); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  /// Packed bytes currently held.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return size() * sizeof(PackedEvent);
  }

  /// Cycle of the oldest retained event (0 when empty) — the start of the
  /// faithfully covered window after eviction.
  [[nodiscard]] i64 first_cycle() const;

  /// Visit every retained event in emission order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& chunk : chunks_) {
      const std::size_t count = &chunk == tail_ ? tail_fill() : chunk.count;
      for (std::size_t i = 0; i < count; ++i) fn(chunk.data[i].unpack());
    }
  }

  /// Materialize the retained events (tests, small windows).
  [[nodiscard]] std::vector<Event> events() const;

  /// Drop everything; recorded()/dropped() reset too.
  void clear();

  /// Receives the pushed events in order, a batch at a time.
  using ChunkSink = std::function<void(std::span<const PackedEvent>)>;

  /// Hand every event pushed from now on to `sink` exactly once, in
  /// order: a chunk's events when it fills (so before it can be evicted)
  /// and the rest on flush().  An online fold (obs::Tracer's attribution)
  /// then runs in tight batches instead of once per event.  nullptr
  /// detaches.
  void set_chunk_sink(ChunkSink sink);

  /// Deliver the events pushed since the last delivery to the sink.
  void flush();

 private:
  /// Fixed-size slab of kChunkEvents; `count` events are valid (the
  /// tail's count is tail_fill() until the chunk closes).
  struct Chunk {
    std::unique_ptr<PackedEvent[]> data;
    std::size_t count = 0;
  };

  /// Events written to the open tail chunk.
  [[nodiscard]] std::size_t tail_fill() const noexcept {
    return tail_ == nullptr ? 0 : static_cast<std::size_t>(cursor_ - tail_->data.get());
  }
  /// Close the full tail chunk and start a fresh one, evicting the oldest
  /// chunk at capacity.
  void new_chunk();
  [[noreturn]] static void field_width_exceeded();

  std::size_t capacity_;
  std::size_t size_ = 0;  ///< retained events in closed chunks
  i64 recorded_ = 0;      ///< events in closed chunks, evicted included
  std::deque<Chunk> chunks_;
  Chunk* tail_ = nullptr;  ///< cached &chunks_.back(); stable across pop_front
  PackedEvent* cursor_ = nullptr;     ///< next slot of the tail chunk
  PackedEvent* chunk_end_ = nullptr;  ///< one past the tail chunk
  /// Pre-faulted spare slabs; new_chunk() draws from here (or recycles an
  /// evicted chunk) so the steady state is allocation-free.
  std::vector<std::unique_ptr<PackedEvent[]>> free_;
  ChunkSink sink_;
  std::size_t delivered_ = 0;  ///< tail events already handed to sink_
};

/// RAII binding of an EventBuffer to a MemorySystem: attaches the buffer
/// as a recorder (MemorySystem::add_recorder), so every event is pushed
/// into it, and detaches on destruction.  trace::Timeline records through
/// this (obs::Tracer attaches its buffer the same way); a Timeline given a
/// Tracer's shared buffer only reads it, so the stream is stored once.
class EventRecorder {
 public:
  /// Uses `buffer` if given, otherwise creates one with `capacity`.
  explicit EventRecorder(MemorySystem& mem, std::shared_ptr<EventBuffer> buffer = nullptr,
                         std::size_t capacity = EventBuffer::kDefaultCapacity);
  ~EventRecorder();

  EventRecorder(const EventRecorder&) = delete;
  EventRecorder& operator=(const EventRecorder&) = delete;
  EventRecorder(EventRecorder&&) = delete;
  EventRecorder& operator=(EventRecorder&&) = delete;

  /// Detach from the MemorySystem; the buffer stays readable.  Idempotent.
  void detach();

  [[nodiscard]] const EventBuffer& buffer() const noexcept { return *buffer_; }
  [[nodiscard]] EventBuffer& buffer() noexcept { return *buffer_; }
  /// Share the buffer with another reader (e.g. a Timeline over a traced
  /// run).
  [[nodiscard]] std::shared_ptr<EventBuffer> share() const noexcept { return buffer_; }

 private:
  MemorySystem& mem_;
  std::shared_ptr<EventBuffer> buffer_;
  bool attached_ = false;
};

}  // namespace vpmem::sim
