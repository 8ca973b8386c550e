// Per-flow finish times of a ServiceLoop (DESIGN.md §13 "Retained state").
//
// The Simulator keeps no finish time once a flow's record is released, so a
// ServiceLoop that reports them records them itself: a flow listener writes
// each completion into a FlowFinishRecord, and ServiceLoop::result() hands
// out a FlowFinishView that shares the record's chunks instead of copying
// them.

#pragma once

#include <array>
#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace echelon::service {

// Fixed-size block of finish times; slots never written read kTimeInfinity.
inline constexpr std::size_t kFinishChunk = 4096;
using FinishChunk = std::array<SimTime, kFinishChunk>;

// Read-only finish times in FlowId order, frozen at the instant the record
// handed it out: flow i reads its completion instant, or kTimeInfinity if it
// had not finished then (running, parked). Copying a view copies one
// pointer per 4096 flows.
class FlowFinishView {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = SimTime;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = SimTime;

    Iterator() = default;
    SimTime operator*() const { return (*view_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const Iterator&) const = default;

   private:
    friend class FlowFinishView;
    Iterator(const FlowFinishView* view, std::size_t i) : view_(view), i_(i) {}
    const FlowFinishView* view_ = nullptr;
    std::size_t i_ = 0;
  };

  FlowFinishView() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  // Unchecked like std::vector::operator[]: requires i < size().
  [[nodiscard]] SimTime operator[](std::size_t i) const {
    const std::size_t c = i / kFinishChunk;
    if (c >= chunks_.size() || chunks_[c] == nullptr) return kTimeInfinity;
    return (*chunks_[c])[i % kFinishChunk];
  }
  [[nodiscard]] Iterator begin() const { return {this, 0}; }
  [[nodiscard]] Iterator end() const { return {this, size_}; }

 private:
  friend class FlowFinishRecord;
  FlowFinishView(std::vector<std::shared_ptr<const FinishChunk>> chunks,
                 std::size_t size)
      : chunks_(std::move(chunks)), size_(size) {}

  std::vector<std::shared_ptr<const FinishChunk>> chunks_;
  std::size_t size_ = 0;
};

// The writer: one slot per flow, in chunks created on their first write.
class FlowFinishRecord {
 public:
  void record(std::size_t flow, SimTime finish) {
    const std::size_t c = flow / kFinishChunk;
    if (c >= chunks_.size()) chunks_.resize(c + 1);
    std::shared_ptr<FinishChunk>& chunk = chunks_[c];
    if (chunk == nullptr) {
      chunk = std::make_shared<FinishChunk>();
      chunk->fill(kTimeInfinity);
    } else if (chunk.use_count() > 1) {
      // A view still reads this chunk: write into a private clone so the
      // view stays frozen.
      chunk = std::make_shared<FinishChunk>(*chunk);
    }
    (*chunk)[flow % kFinishChunk] = finish;
  }

  // A view of the first `size` flows (the flows submitted so far); slots
  // past the last recorded chunk read kTimeInfinity.
  [[nodiscard]] FlowFinishView view(std::size_t size) const {
    return FlowFinishView(std::vector<std::shared_ptr<const FinishChunk>>(
                              chunks_.begin(), chunks_.end()),
                          size);
  }

 private:
  std::vector<std::shared_ptr<FinishChunk>> chunks_;
};

}  // namespace echelon::service
