// Epoch-stamped dense scratch containers for allocation-free hot paths.
//
// The scheduling/allocation pipeline runs on every flow arrival and
// departure, and used to rebuild hash maps (and pay their per-node
// allocations) on every pass. Entity ids in this codebase (LinkId, FlowId,
// ...) are dense vector indices, so per-pass associative state can live in
// flat arrays instead. The trick that makes flat arrays cheap is *lazy
// reset*: each slot carries the generation (epoch) it was last written in,
// and bumping a single counter invalidates the whole array in O(1) -- no
// O(N) clear, no allocation. Arenas grow to their high-water mark once and
// are reused forever after ("zero heap allocations in steady state").
//
// EpochScratch<T> is a dense array keyed by a small integer id, with a
// touched-list so sparse passes can iterate exactly the slots they wrote.

#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace echelon {

// Dense array of T indexed by a small integer id with O(1) logical reset.
// Usage per pass: begin_pass(), then touch()/at()/find(). Slots not touched
// since the last begin_pass() read as absent (find() == nullptr).
template <typename T>
class EpochScratch {
 public:
  // Grows the backing arrays; existing stamps and values are preserved, new
  // slots start absent. Never shrinks (arena semantics).
  void ensure_size(std::size_t n) {
    if (values_.size() < n) {
      values_.resize(n);
      stamps_.resize(n, 0);
    }
  }

  // Logically empties the scratch. O(1): bumps the epoch and resets the
  // touched-list cursor.
  void begin_pass() noexcept {
    ++epoch_;
    touched_.clear();
  }

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

  [[nodiscard]] bool active(std::size_t i) const {
    assert(i < stamps_.size());
    return stamps_[i] == epoch_;
  }

  // Slot i, value-initialized (and recorded as touched) on first access in
  // the current pass.
  T& touch(std::size_t i) { return touch(i, T{}); }

  // Slot i, initialized to `init` on first access in the current pass.
  T& touch(std::size_t i, const T& init) {
    assert(i < values_.size());
    if (stamps_[i] != epoch_) {
      stamps_[i] = epoch_;
      values_[i] = init;
      touched_.push_back(static_cast<std::uint32_t>(i));
    }
    return values_[i];
  }

  // Slot i, which must have been touched this pass.
  [[nodiscard]] T& at(std::size_t i) {
    assert(active(i));
    return values_[i];
  }
  [[nodiscard]] const T& at(std::size_t i) const {
    assert(active(i));
    return values_[i];
  }

  // Pointer to slot i if touched this pass, nullptr otherwise.
  [[nodiscard]] const T* find(std::size_t i) const {
    return i < values_.size() && stamps_[i] == epoch_ ? &values_[i] : nullptr;
  }

  // Indices touched this pass, in first-touch order.
  [[nodiscard]] const std::vector<std::uint32_t>& touched() const noexcept {
    return touched_;
  }

 private:
  std::vector<T> values_;
  std::vector<std::uint64_t> stamps_;  // slot epoch; 0 = never written
  std::vector<std::uint32_t> touched_;
  std::uint64_t epoch_ = 0;  // begin_pass() makes the first usable epoch 1
};

}  // namespace echelon
