#pragma once

// Open-addressing hash index over 64-bit keys, for per-record lookups on
// hot paths: one flat bucket array, linear probing, a power-of-two
// capacity kept at most half full, Fibonacci hashing of the key. Entries
// are never erased, so no tombstones; nothing is allocated per entry. The
// churn analyzer maps its prefixes to dense state slots and keeps its
// seen-path hashes with it; the session-reset filter numbers sessions and
// prefixes with it, and the relay monitor finds its per-prefix state and
// keeps its learned AS sets with it.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace quicksand::util {

/// Map from 64-bit keys to 32-bit values (typically dense slot numbers).
class FlatIndex {
 public:
  /// Marks an empty bucket; never a stored value.
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

  /// The value stored for `key`. If `key` is absent, stores `value` for it
  /// first and sets `inserted` to true; otherwise sets it to false.
  /// `value` must not be kAbsent.
  std::uint32_t FindOrInsert(std::uint64_t key, std::uint32_t value, bool& inserted) {
    if ((size_ + 1) * 2 > buckets_.size()) Grow();
    for (std::size_t i = Home(key);; i = (i + 1) & (buckets_.size() - 1)) {
      Bucket& bucket = buckets_[i];
      if (bucket.value == kAbsent) {
        bucket = {key, value};
        ++size_;
        inserted = true;
        return value;
      }
      if (bucket.key == key) {
        inserted = false;
        return bucket.value;
      }
    }
  }

  /// The value stored for `key`, or kAbsent.
  [[nodiscard]] std::uint32_t Find(std::uint64_t key) const {
    if (buckets_.empty()) return kAbsent;
    for (std::size_t i = Home(key);; i = (i + 1) & (buckets_.size() - 1)) {
      const Bucket& bucket = buckets_[i];
      if (bucket.value == kAbsent || bucket.key == key) return bucket.value;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Calls `fn(key, value)` for every entry, in bucket order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Bucket& bucket : buckets_) {
      if (bucket.value != kAbsent) fn(bucket.key, bucket.value);
    }
  }

 private:
  struct Bucket {
    std::uint64_t key = 0;
    std::uint32_t value = kAbsent;
  };

  [[nodiscard]] std::size_t Home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Grow() {
    std::vector<Bucket> old(buckets_.empty() ? 16 : buckets_.size() * 2);
    old.swap(buckets_);
    shift_ = 64;
    for (std::size_t n = buckets_.size(); n > 1; n >>= 1) --shift_;
    for (const Bucket& bucket : old) {
      if (bucket.value == kAbsent) continue;
      std::size_t i = Home(bucket.key);
      while (buckets_[i].value != kAbsent) i = (i + 1) & (buckets_.size() - 1);
      buckets_[i] = bucket;
    }
  }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

/// Set of 64-bit values (e.g. hashes) on a FlatIndex.
class FlatU64Set {
 public:
  /// Adds `value`; true iff it was not present yet.
  bool Insert(std::uint64_t value) {
    bool inserted = false;
    (void)index_.FindOrInsert(value, 0, inserted);
    return inserted;
  }

  /// True iff `value` is a member.
  [[nodiscard]] bool Contains(std::uint64_t value) const {
    return index_.Find(value) != FlatIndex::kAbsent;
  }

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }

  /// Calls `fn(value)` for every member, in no particular order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    index_.ForEach([&fn](std::uint64_t value, std::uint32_t) { fn(value); });
  }

 private:
  FlatIndex index_;
};

}  // namespace quicksand::util
