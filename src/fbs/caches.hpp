// Software key caches (Section 5.3, Figure 5).
//
// FBS performance rests on four caches -- PVC (public-value certificates),
// MKC (pair-based master keys), TFKC and RFKC (transmit/receive flow keys).
// The paper requires them to be fast software caches: low associativity,
// and an index hash that *randomizes correlated inputs* (local addresses,
// sequential sfls) -- it names CRC-32; we also provide the naive modulo and
// XOR-fold hashes it warns against, for the ablation bench.
//
// Misses are classified into the paper's three kinds -- compulsory (cold),
// capacity, and collision (conflict) -- exactly and in O(1) per reference.
// By the LRU inclusion property, a reference's reuse distance is below C
// exactly when the key is resident in a fully associative LRU cache of C
// entries. So the classifier keeps such a cache as a shadow of the real
// one (the same capacity, keys only): a miss on a key the shadow holds is
// a collision miss, the set mapping alone lost it. A key absent from the
// shadow either was evicted from it once (capacity miss) or was never seen
// (cold); a fixed-size Bloom filter of every shadow eviction tells the
// two apart. Its rare false positives shift a cold miss to capacity but
// never perturb the hit/miss split. Memory is bounded by the capacity plus
// the fixed filter, however many flows pass through -- the million-flow
// requirement of DESIGN.md 5i.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/bytes.hpp"
#include "util/crc32.hpp"
#include "util/flat_map.hpp"

namespace fbs::core {

enum class CacheHashKind : std::uint8_t {
  kCrc32,    // the paper's recommendation
  kModulo,   // low bytes of the raw key, mod nsets
  kXorFold,  // XOR of 32-bit words, mod nsets
};

/// Map a key to a set index in [0, nsets).
std::size_t cache_index(CacheHashKind kind, util::BytesView key,
                        std::size_t nsets);

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t cold_misses = 0;
  std::uint64_t capacity_misses = 0;
  std::uint64_t collision_misses = 0;

  std::uint64_t misses() const {
    return cold_misses + capacity_misses + collision_misses;
  }
  std::uint64_t accesses() const { return hits + misses(); }
  double miss_rate() const {
    return accesses() ? static_cast<double>(misses()) /
                            static_cast<double>(accesses())
                      : 0.0;
  }
};

/// Ordering over raw byte ranges with heterogeneous lookup, so cache probes
/// keyed by a BytesView never materialize a util::Bytes.
struct ByteRangeLess {
  using is_transparent = void;
  bool operator()(util::BytesView a, util::BytesView b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

/// Exact 3C miss classifier: a fully associative LRU shadow of the cache
/// (capacity keys in an index-linked slab, found through a FlatMap) plus
/// a Bloom filter of everything the shadow ever evicted.
class MissClassifier {
 public:
  enum class MissKind { kCold, kCapacity, kCollision };

  /// `capacity` is the total entry count of the cache being classified.
  explicit MissClassifier(std::size_t capacity)
      : capacity_(capacity ? capacity : 1) {}
  // The index views the nodes' own key buffers, which a move carries over
  // but a copy would not.
  MissClassifier(const MissClassifier&) = delete;
  MissClassifier& operator=(const MissClassifier&) = delete;
  MissClassifier(MissClassifier&&) noexcept = default;
  MissClassifier& operator=(MissClassifier&&) noexcept = default;

  /// Classify a miss on `key`, then make it the most recent reference.
  MissKind classify_miss(util::BytesView key);
  /// Record a hit: the key becomes the most recent reference. (A hit on a
  /// key the shadow does not hold -- e.g. one pinned directly into the
  /// cache, or a set-associative survivor the shadow already evicted --
  /// enters the shadow.)
  void record_hit(util::BytesView key);

  /// Keys currently in the shadow; at most the capacity.
  std::size_t size() const { return index_.size(); }
  /// Footprint of the simulator: position index slots + slab + key bytes +
  /// Bloom filter. Bounded by the capacity (plus the fixed filter), not by
  /// the number of distinct keys ever seen -- the regression test pins this.
  std::size_t approx_memory_bytes() const {
    return index_.memory_bytes() + nodes_.capacity() * sizeof(Node) +
           key_bytes_ + ever_evicted_.capacity() * sizeof(std::uint64_t);
  }

 private:
  // Fixed-size blocked Bloom filter over evicted keys: 2^17 words = 1 MiB,
  // 4 probes. At 10^6 distinct evicted keys the false-positive rate is a
  // few percent of *cold* misses only; at the paper's trace scale it is
  // effectively zero.
  static constexpr std::size_t kBloomWords = std::size_t{1} << 17;
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// One shadow entry: the key (its heap block is reused when the slot is
  /// recycled for an equally long key) and its LRU neighbours by index.
  struct Node {
    util::Bytes key;
    std::uint32_t newer = kNone;
    std::uint32_t older = kNone;
  };

  void touch(std::uint32_t i);  // move node i to the MRU end
  void unlink(std::uint32_t i);
  void push_front(std::uint32_t i);
  void insert(util::BytesView key);
  void note_evicted(util::BytesView key);
  bool ever_evicted(util::BytesView key) const;

  std::size_t capacity_;
  std::vector<Node> nodes_;  // reserved to capacity_ on first use
  std::uint32_t mru_ = kNone;
  std::uint32_t lru_ = kNone;
  /// Key bytes (viewing the node's own buffer) -> node index.
  util::FlatMap<util::BytesView, std::uint32_t, util::ByteRangeHash,
                util::ByteRangeEq>
      index_;
  std::size_t key_bytes_ = 0;
  std::vector<std::uint64_t> ever_evicted_;  // Bloom bits, sized lazily
};

/// Set-associative software cache with LRU replacement within each set.
/// ways == 1 gives the direct-mapped organization of Figure 7 / Section 5.3.
template <typename Value>
class SetAssociativeCache {
 public:
  SetAssociativeCache(std::size_t capacity, std::size_t ways = 1,
                      CacheHashKind hash = CacheHashKind::kCrc32)
      : ways_(ways ? ways : 1),
        nsets_(capacity / (ways ? ways : 1) ? capacity / (ways ? ways : 1)
                                            : 1),
        hash_(hash),
        sets_(nsets_ * ways_),
        classifier_(nsets_ * ways_) {}

  std::size_t capacity() const { return nsets_ * ways_; }

  /// nullptr on miss (recorded in stats with its 3C classification). Keys
  /// are plain views: a hit performs no allocation at all.
  Value* lookup(util::BytesView key) {
    const std::size_t set = cache_index(hash_, key, nsets_);
    Entry* e = find_in(set, key);
    if (e) {
      e->lru_tick = ++tick_;
      ++stats_.hits;
      classifier_.record_hit(key);
      return &e->value;
    }
    switch (classifier_.classify_miss(key)) {
      case MissClassifier::MissKind::kCold: ++stats_.cold_misses; break;
      case MissClassifier::MissKind::kCapacity: ++stats_.capacity_misses; break;
      case MissClassifier::MissKind::kCollision: ++stats_.collision_misses; break;
    }
    // A miss is normally followed by an insert of the same key (the
    // flow-key derive path); remember its set so the insert does not hash
    // the key a second time.
    miss_key_.assign(key.begin(), key.end());
    miss_set_ = set;
    miss_valid_ = true;
    return nullptr;
  }

  /// Peek without touching stats or LRU state.
  const Value* peek(util::BytesView key) const {
    const Entry* e = const_cast<SetAssociativeCache*>(this)->find(key);
    return e ? &e->value : nullptr;
  }

  /// Insert/overwrite; evicts the LRU way of the set if full. Returns the
  /// stored value, which stays valid until the next insert touching its set.
  Value* insert(util::BytesView key, Value value) {
    const std::size_t set = miss_valid_ && std::ranges::equal(miss_key_, key)
                                ? miss_set_
                                : cache_index(hash_, key, nsets_);
    Entry* slot = nullptr;
    for (std::size_t w = 0; w < ways_; ++w) {
      Entry& e = sets_[set * ways_ + w];
      if (e.valid && std::ranges::equal(e.key, key)) {
        slot = &e;
        break;
      }
      if (!slot && !e.valid) slot = &e;
    }
    if (!slot) {  // evict LRU way
      slot = &sets_[set * ways_];
      for (std::size_t w = 1; w < ways_; ++w) {
        Entry& e = sets_[set * ways_ + w];
        if (e.lru_tick < slot->lru_tick) slot = &e;
      }
      ++evictions_;
    }
    slot->valid = true;
    slot->key.assign(key.begin(), key.end());
    slot->value = std::move(value);
    slot->lru_tick = ++tick_;
    return &slot->value;
  }

  void erase(util::BytesView key) {
    if (Entry* e = find(key)) e->valid = false;
  }

  void clear() {
    for (Entry& e : sets_) e.valid = false;
  }

  const CacheStats& stats() const { return stats_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    bool valid = false;
    util::Bytes key;
    Value value{};
    std::uint64_t lru_tick = 0;
  };

  Entry* find(util::BytesView key) {
    return find_in(cache_index(hash_, key, nsets_), key);
  }

  Entry* find_in(std::size_t set, util::BytesView key) {
    for (std::size_t w = 0; w < ways_; ++w) {
      Entry& e = sets_[set * ways_ + w];
      if (e.valid && std::ranges::equal(e.key, key)) return &e;
    }
    return nullptr;
  }

  std::size_t ways_;
  std::size_t nsets_;
  CacheHashKind hash_;
  std::vector<Entry> sets_;
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
  CacheStats stats_;
  MissClassifier classifier_;
  util::Bytes miss_key_;  // key of the last missed lookup
  std::size_t miss_set_ = 0;
  bool miss_valid_ = false;
};

}  // namespace fbs::core
