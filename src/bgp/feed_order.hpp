#pragma once

// The canonical feed order: (time, session, prefix), ties kept in input
// order. One kernel sorts both feed types: SortUpdates (BgpUpdate) and
// feed::SortRecords (UpdateRec) call StableSortFeed.
//
// A merge sort pays log2(n) passes over the feed. A feed's times spread
// over its window, so the kernel sorts by time buckets instead. It takes
// the feed a quarter at a time: it counts the quarter's records into time
// buckets, moves them bucket by bucket into a buffer (each bucket keeps
// input order), sorts each bucket stably, and merges the buffer backwards
// into the sorted records before it (MergeBackward, which the generator
// also uses to merge its reset artifacts into the month). Among equal keys
// the merge puts the earlier quarter first, so the result is exactly
// std::stable_sort's. Only the move into buckets writes out of order;
// every other pass streams. The scratch is the quarter-sized buffer and
// one bucket bound per record of a quarter, under std::stable_sort's
// buffer of half the input.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

namespace quicksand::bgp {

/// Strict order on the feed key (time, session, prefix).
struct FeedOrderLess {
  template <class Update>
  [[nodiscard]] bool operator()(const Update& a, const Update& b) const noexcept {
    return std::tie(a.time.seconds, a.session, a.prefix) <
           std::tie(b.time.seconds, b.session, b.prefix);
  }
};

/// Stable insertion sort by FeedOrderLess of a non-empty range.
template <class It>
void InsertionSortFeed(It first, It last) {
  for (It it = first + 1; it != last; ++it) {
    if (!FeedOrderLess{}(*it, *(it - 1))) continue;
    auto held = std::move(*it);
    It hole = it;
    do {
      *hole = std::move(*(hole - 1));
      --hole;
    } while (hole != first && FeedOrderLess{}(held, *(hole - 1)));
    *hole = std::move(held);
  }
}

/// Merges the sorted range [tail_begin, tail_end) into the sorted run
/// [begin, mid), filling [begin, mid + tail length) from the back. The
/// positions from mid on must hold nothing that is kept. Among equal keys
/// the run stays first, as a stable sort of the run and the tail would
/// keep it.
template <class It, class TailIt>
void MergeBackward(It begin, It mid, TailIt tail_begin, TailIt tail_end) {
  It out = mid + (tail_end - tail_begin);
  while (tail_end != tail_begin) {
    if (mid != begin && FeedOrderLess{}(*(tail_end - 1), *(mid - 1))) {
      *--out = std::move(*--mid);
    } else {
      *--out = std::move(*--tail_end);
    }
  }
}

/// Stable sort by FeedOrderLess: the same order std::stable_sort gives.
template <class Update>
void StableSortFeed(std::vector<Update>& feed) {
  if (std::is_sorted(feed.begin(), feed.end(), FeedOrderLess{})) return;
  const std::size_t n = feed.size();
  const std::size_t part = (n + 3) / 4;
  std::vector<Update> buffer(part);
  std::vector<std::size_t> bound;
  for (std::size_t first = 0; first < n; first += part) {
    const std::size_t last = std::min(first + part, n);
    const std::size_t len = last - first;
    const auto begin = feed.begin() + static_cast<std::ptrdiff_t>(first);
    const auto end = feed.begin() + static_cast<std::ptrdiff_t>(last);

    // Bucket b holds the records whose offset from the part's earliest
    // time lies in [b << shift, (b + 1) << shift). Offsets are unsigned,
    // so times anywhere in the int64 range cannot overflow them. There
    // are at most len buckets; a part of one record has span 0, and for
    // len >= 2 the shift stops below 64.
    const auto [earliest, latest] = std::minmax_element(
        begin, end,
        [](const Update& a, const Update& b) { return a.time.seconds < b.time.seconds; });
    const auto lo = static_cast<std::uint64_t>(earliest->time.seconds);
    const std::uint64_t span = static_cast<std::uint64_t>(latest->time.seconds) - lo;
    int shift = 0;
    while ((span >> shift) >= len) ++shift;
    const auto bucket_of = [lo, shift](const Update& u) {
      return static_cast<std::size_t>((static_cast<std::uint64_t>(u.time.seconds) - lo) >>
                                      shift);
    };
    const auto buckets = static_cast<std::size_t>(span >> shift) + 1;

    // bound[b + 1] counts bucket b, then bound[b] is where it starts;
    // moving the records in advances bound[b] to where bucket b ends.
    bound.assign(buckets + 1, 0);
    for (auto it = begin; it != end; ++it) ++bound[bucket_of(*it) + 1];
    std::partial_sum(bound.begin(), bound.end(), bound.begin());
    for (auto it = begin; it != end; ++it) buffer[bound[bucket_of(*it)]++] = std::move(*it);

    // Buckets hold a record or two on a spread feed: insertion sort them,
    // and leave a crowded bucket to std::stable_sort.
    auto bucket_begin = buffer.begin();
    for (std::size_t b = 0; b < buckets; ++b) {
      const auto bucket_end = buffer.begin() + static_cast<std::ptrdiff_t>(bound[b]);
      if (bucket_end - bucket_begin > 16) {
        std::stable_sort(bucket_begin, bucket_end, FeedOrderLess{});
      } else if (bucket_end - bucket_begin > 1) {
        InsertionSortFeed(bucket_begin, bucket_end);
      }
      bucket_begin = bucket_end;
    }

    MergeBackward(feed.begin(), begin, buffer.begin(),
                  buffer.begin() + static_cast<std::ptrdiff_t>(len));
  }
}

}  // namespace quicksand::bgp
