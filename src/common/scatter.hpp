// Dense-index counting-sort scatter, shared by the allocator's bucketing
// passes (component members, route buckets, class-by-component and
// member-by-class partitions).
//
// The idiom appears wherever a pass needs "group these items by a small
// dense key, preserving input order within each group" without allocating:
// count per key, prefix-sum into start offsets, then cursor-scatter the
// items. It used to be hand-rolled at each site; this header is the single
// definition (ISSUE 7 cleanup). All buffers are caller-owned arenas --
// assign/resize only ever grow them to their high-water mark, so
// steady-state calls perform no heap allocations.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace echelon {

// Stable counting-sort scatter of `count` items into `buckets` groups.
//
//   key(i)  -- dense bucket key of item i, in [0, buckets)
//   item(i) -- the value to scatter (typically i itself, or a slot index)
//
// On return:
//   start  -- buckets+1 prefix offsets: group b occupies
//             out[start[b] .. start[b+1])
//   out    -- items grouped by key, input order preserved within each group
//   cursor -- scratch (same length as start); contents unspecified
//
// Cost: O(count + buckets), no allocations beyond arena growth.
template <typename KeyFn, typename ItemFn>
void bucket_scatter(std::size_t count, std::size_t buckets, KeyFn key,
                    ItemFn item, std::vector<std::uint32_t>& start,
                    std::vector<std::uint32_t>& cursor,
                    std::vector<std::uint32_t>& out) {
  start.assign(buckets + 1, 0);
  for (std::size_t i = 0; i < count; ++i) ++start[key(i) + 1];
  for (std::size_t b = 0; b < buckets; ++b) start[b + 1] += start[b];
  cursor.assign(start.begin(), start.end());
  out.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[cursor[key(i)]++] = item(i);
  }
}

}  // namespace echelon
