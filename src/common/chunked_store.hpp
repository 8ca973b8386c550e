// Chunked record storage, shared by the Simulator's flow and task records
// and the EchelonFlow registry.

#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace echelon {

// Record store in fixed kChunk-element chunks (DESIGN.md §6). Appending
// never moves an existing element, so references into the store stay valid
// across push_back -- and growth never holds two copies of the records the
// way a doubling vector's reallocation does. Indices are never reused: a
// record is retired once it is done for good, and a full chunk whose every
// record is retired is freed whole. A released index stays counted in
// size() but is no longer resident, and at() on it throws.
template <typename T>
class ChunkedStore {
 public:
  // The most records a power-of-two chunk of at most 64 KiB holds: 256
  // flows, 512 tasks or 512 EchelonFlows. A chunk sized in bytes stays
  // under glibc's 128 KiB mmap threshold, and a freed chunk leaves at most
  // a 64 KiB hole in the heap, which the next chunk of its store fills.
  static constexpr std::size_t kChunk =
      std::bit_floor(std::size_t{65536} / sizeof(T));
  static_assert(kChunk > 0, "a record larger than a 64 KiB chunk");

  ChunkedStore() = default;
  // A copied chunk keeps no spare capacity, so appending to a copy could
  // move its records: copying is disabled. Moves keep every chunk buffer.
  ChunkedStore(const ChunkedStore&) = delete;
  ChunkedStore& operator=(const ChunkedStore&) = delete;
  ChunkedStore(ChunkedStore&&) noexcept = default;
  ChunkedStore& operator=(ChunkedStore&&) noexcept = default;

  // Records ever pushed, released ones included.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  // True when record `i` was pushed and its chunk has not been released.
  [[nodiscard]] bool resident(std::size_t i) const noexcept {
    return i < size_ && i % kChunk < chunks_[i / kChunk].slots.size();
  }

  // Bounds-checked like std::vector::at; a released record is out of range.
  [[nodiscard]] T& at(std::size_t i) {
    if (!resident(i)) throw std::out_of_range("ChunkedStore::at");
    return chunks_[i / kChunk].slots[i % kChunk];
  }
  [[nodiscard]] const T& at(std::size_t i) const {
    if (!resident(i)) throw std::out_of_range("ChunkedStore::at");
    return chunks_[i / kChunk].slots[i % kChunk];
  }

  T& push_back(T value) {
    if (size_ % kChunk == 0) {
      // A chunk never grows past its reserved capacity, so its buffer never
      // moves; growing chunks_ moves the chunk vectors, not their buffers.
      chunks_.emplace_back().slots.reserve(kChunk);
    }
    Chunk& c = chunks_.back();
    T& slot = c.slots.emplace_back(std::move(value));
    ++c.open;
    ++size_;
    return slot;
  }

  // Marks resident record `i` done for good; call at most once per record.
  // Frees the chunk when it is full and this was its last open record. A
  // partly filled chunk is never freed, so a store under kChunk records
  // never releases anything.
  void retire(std::size_t i) {
    Chunk& c = chunks_[i / kChunk];
    assert(resident(i) && c.open > 0 && "retire of a released record");
    if (--c.open == 0 && c.slots.size() == kChunk) {
      std::vector<T>().swap(c.slots);
    }
  }

 private:
  struct Chunk {
    std::vector<T> slots;
    std::size_t open = 0;  // pushed and not yet retired
  };
  std::vector<Chunk> chunks_;
  std::size_t size_ = 0;
};

}  // namespace echelon
