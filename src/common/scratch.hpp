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
// Two containers:
//   * EpochScratch<T> -- dense array keyed by a small integer id, with a
//     touched-list so sparse passes can iterate exactly the slots they wrote.
//   * KeySlotMap      -- open-addressing map from an *arbitrary* 64-bit key
//     to a uint32 payload, for group keys that are not dense (e.g.
//     singleton coflow keys with the high bit set). Also epoch-cleared.

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

// Epoch-stamped open-addressing (linear probing) map from an arbitrary
// 64-bit key to a uint32 payload. begin_pass(expected) logically empties the
// table and guarantees load factor <= 1/2 for up to `expected` insertions;
// once the table has grown to its high-water capacity, passes are
// allocation-free.
class KeySlotMap {
 public:
  void begin_pass(std::size_t expected) {
    std::size_t want = 16;
    while (want < expected * 2) want <<= 1;
    if (keys_.size() < want) {
      keys_.assign(want, 0);
      vals_.assign(want, 0);
      stamps_.assign(want, 0);
      epoch_ = 0;
    }
    ++epoch_;
  }

  // Payload slot for `key`, inserting (zero-initialized) if absent this
  // pass. `inserted` reports whether the key was new.
  std::uint32_t& find_or_insert(std::uint64_t key, bool& inserted) {
    assert(!keys_.empty() && "begin_pass() before use");
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (true) {
      if (stamps_[i] != epoch_) {
        stamps_[i] = epoch_;
        keys_[i] = key;
        vals_[i] = 0;
        inserted = true;
        return vals_[i];
      }
      if (keys_[i] == key) {
        inserted = false;
        return vals_[i];
      }
      i = (i + 1) & mask;
    }
  }

  // Payload for `key` if present this pass, nullptr otherwise.
  [[nodiscard]] const std::uint32_t* find(std::uint64_t key) const {
    if (keys_.empty()) return nullptr;
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (stamps_[i] == epoch_) {
      if (keys_[i] == key) return &vals_[i];
      i = (i + 1) & mask;
    }
    return nullptr;
  }

 private:
  // SplitMix64 finalizer: full-avalanche mix so sequential ids spread.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> vals_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t epoch_ = 0;
};

}  // namespace echelon
