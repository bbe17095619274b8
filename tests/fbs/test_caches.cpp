#include "fbs/caches.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace fbs::core {
namespace {

util::Bytes key_of(std::uint64_t v) {
  util::ByteWriter w(8);
  w.u64(v);
  return w.take();
}

TEST(CacheIndex, AlwaysInRange) {
  util::SplitMix64 rng(1);
  for (auto kind : {CacheHashKind::kCrc32, CacheHashKind::kModulo,
                    CacheHashKind::kXorFold}) {
    for (int i = 0; i < 200; ++i) {
      const util::Bytes k = rng.next_bytes(1 + rng.next_below(20));
      EXPECT_LT(cache_index(kind, k, 7), 7u);
      EXPECT_EQ(cache_index(kind, k, 1), 0u);
    }
  }
}

TEST(CacheIndex, Deterministic) {
  const util::Bytes k = key_of(42);
  EXPECT_EQ(cache_index(CacheHashKind::kCrc32, k, 64),
            cache_index(CacheHashKind::kCrc32, k, 64));
}

TEST(CacheIndex, ModuloClustersSequentialKeys) {
  // The failure mode Section 5.3 warns about: sequential sfls under raw
  // modulo all land in consecutive sets of a power-of-two... and worse, with
  // stride-N allocation they collide. CRC-32 spreads them.
  constexpr std::size_t kSets = 64;
  std::vector<int> mod_hist(kSets, 0), crc_hist(kSets, 0);
  for (std::uint64_t i = 0; i < 256; ++i) {
    const util::Bytes k = key_of(i * kSets);  // strided labels
    ++mod_hist[cache_index(CacheHashKind::kModulo, k, kSets)];
    ++crc_hist[cache_index(CacheHashKind::kCrc32, k, kSets)];
  }
  const int mod_peak = *std::max_element(mod_hist.begin(), mod_hist.end());
  const int crc_peak = *std::max_element(crc_hist.begin(), crc_hist.end());
  EXPECT_EQ(mod_peak, 256);  // all collide into one set
  EXPECT_LT(crc_peak, 20);
}

TEST(MissClassifier, FirstAccessIsCold) {
  MissClassifier c(4);
  EXPECT_EQ(c.classify_miss(key_of(1)), MissClassifier::MissKind::kCold);
  EXPECT_EQ(c.classify_miss(key_of(2)), MissClassifier::MissKind::kCold);
}

TEST(MissClassifier, ShortReuseIsCollision) {
  MissClassifier c(4);
  (void)c.classify_miss(key_of(1));
  (void)c.classify_miss(key_of(2));
  // Key 1 was referenced 1 step ago (< capacity 4): a fully associative
  // cache would have kept it, so a miss on it is a collision miss.
  EXPECT_EQ(c.classify_miss(key_of(1)), MissClassifier::MissKind::kCollision);
}

TEST(MissClassifier, LongReuseIsCapacity) {
  MissClassifier c(2);
  (void)c.classify_miss(key_of(0));
  for (std::uint64_t i = 1; i <= 5; ++i) (void)c.classify_miss(key_of(i));
  // Key 0 is 5 deep in the stack; capacity 2 could not have held it.
  EXPECT_EQ(c.classify_miss(key_of(0)), MissClassifier::MissKind::kCapacity);
}

TEST(MissClassifier, HitsRefreshStackPosition) {
  MissClassifier c(3);
  (void)c.classify_miss(key_of(0));
  (void)c.classify_miss(key_of(1));
  c.record_hit(key_of(0));  // 0 back on top: stack 0 1
  (void)c.classify_miss(key_of(2));  // 2 0 1
  // Without the refresh 0 would be 2 deep and 1 only 1 deep; with it, 1 is
  // the deeper key, and one more reference pushes it out of capacity 3.
  (void)c.classify_miss(key_of(3));  // 3 2 0 | 1
  EXPECT_EQ(c.classify_miss(key_of(0)), MissClassifier::MissKind::kCollision);
  EXPECT_EQ(c.classify_miss(key_of(1)), MissClassifier::MissKind::kCapacity);
}

TEST(MissClassifier, EvictedKeyReclassifiesAsCapacityNotCold) {
  // A key pushed out of the shadow is remembered (Bloom filter of evicted
  // keys): its return is a capacity miss -- an unbounded stack simulator
  // would have found it deep in the stack -- never a fresh cold miss.
  MissClassifier c(4);
  (void)c.classify_miss(key_of(0));
  for (std::uint64_t i = 1; i < 10; ++i) (void)c.classify_miss(key_of(i));
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.classify_miss(key_of(0)), MissClassifier::MissKind::kCapacity);
}

// The classifier must hold bounded state on an internet-scale reference
// stream: the shadow holds exactly `capacity` keys plus a fixed filter, so
// memory plateaus and the per-classification cost is O(1) -- independent
// of trace length and of the capacity.
TEST(MissClassifier, BoundedMemoryOnHundredThousandFlowTrace) {
  MissClassifier c(512);  // the largest Figure 11 capacity
  std::size_t mem_at_20k = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    (void)c.classify_miss(key_of(i));
    if (i == 19999) mem_at_20k = c.approx_memory_bytes();
  }
  // The shadow never outgrows the capacity...
  EXPECT_EQ(c.size(), 512u);
  // ...and the footprint stopped growing long before the trace ended: 80k
  // further distinct keys added zero bytes.
  EXPECT_EQ(c.approx_memory_bytes(), mem_at_20k);
  // Sanity on the absolute bound: ~1 MiB Bloom filter + the shadow.
  EXPECT_LT(c.approx_memory_bytes(), std::size_t{4} << 20);
}

// Oracle for the property test below: an unbounded LRU stack, searched
// linearly. A miss's reuse distance d is the key's depth in the stack;
// d < capacity means collision, a key never seen is cold, anything else
// is capacity. Slow and obviously right.
class StackDistanceOracle {
 public:
  explicit StackDistanceOracle(std::size_t capacity) : capacity_(capacity) {}

  void record_hit(std::uint64_t key) { (void)distance_and_raise(key); }
  MissClassifier::MissKind classify_miss(std::uint64_t key) {
    const std::size_t d = distance_and_raise(key);
    if (d == SIZE_MAX) return MissClassifier::MissKind::kCold;
    return d < capacity_ ? MissClassifier::MissKind::kCollision
                         : MissClassifier::MissKind::kCapacity;
  }

 private:
  std::size_t distance_and_raise(std::uint64_t key) {
    const auto it = std::find(stack_.begin(), stack_.end(), key);
    const std::size_t d =
        it == stack_.end() ? SIZE_MAX
                           : static_cast<std::size_t>(it - stack_.begin());
    if (it != stack_.end()) stack_.erase(it);
    stack_.insert(stack_.begin(), key);
    return d;
  }

  std::size_t capacity_;
  std::vector<std::uint64_t> stack_;  // most recent first
};

struct ThreeC {
  std::uint64_t cold = 0, capacity = 0, collision = 0;
  void add(MissClassifier::MissKind k) {
    switch (k) {
      case MissClassifier::MissKind::kCold: ++cold; break;
      case MissClassifier::MissKind::kCapacity: ++capacity; break;
      case MissClassifier::MissKind::kCollision: ++collision; break;
    }
  }
  bool operator==(const ThreeC&) const = default;
};

// The O(1) shadow classifier against the brute-force stack-distance oracle,
// reference by reference, on the reference streams a real cache produces:
// a direct-mapped and a 2-way cache of the same capacity decide hit or
// miss; both classifiers see the identical hit/miss sequence. Uniform and
// Zipf-skewed key streams, every capacity 1..512 by powers of two.
TEST(MissClassifier, MatchesUnboundedStackDistanceOracle) {
  for (const bool zipf : {false, true}) {
    for (std::size_t capacity = 1; capacity <= 512; capacity *= 2) {
      for (const std::size_t ways : {std::size_t{1}, std::size_t{2}}) {
        util::SplitMix64 rng(capacity * 7 + ways + (zipf ? 1000 : 0));
        const std::size_t universe = capacity * 4 + 3;
        // Zipf(1) over the universe by inverse-CDF on the harmonic sums.
        std::vector<double> cdf(universe);
        double acc = 0;
        for (std::size_t r = 0; r < universe; ++r) {
          acc += zipf ? 1.0 / static_cast<double>(r + 1) : 1.0;
          cdf[r] = acc;
        }
        SetAssociativeCache<char> cache(capacity, ways);
        MissClassifier fast(capacity);
        StackDistanceOracle oracle(capacity);
        ThreeC got, want;
        for (int n = 0; n < 4000; ++n) {
          const double u = rng.next_double() * acc;
          const auto key = static_cast<std::uint64_t>(
              std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
          const util::Bytes k = key_of(key);
          if (cache.peek(k) != nullptr) {
            (void)cache.lookup(k);
            fast.record_hit(k);
            oracle.record_hit(key);
            continue;
          }
          (void)cache.lookup(k);
          cache.insert(k, 1);
          const auto f = fast.classify_miss(k);
          const auto o = oracle.classify_miss(key);
          ASSERT_EQ(f, o) << "capacity " << capacity << " ways " << ways
                          << " zipf " << zipf << " reference " << n;
          got.add(f);
          want.add(o);
        }
        EXPECT_EQ(got, want);
        // The cache's own classifier saw the same stream.
        EXPECT_EQ(cache.stats().cold_misses, want.cold);
        EXPECT_EQ(cache.stats().capacity_misses, want.capacity);
        EXPECT_EQ(cache.stats().collision_misses, want.collision);
      }
    }
  }
}

TEST(Cache, InsertThenLookupHits) {
  SetAssociativeCache<int> cache(8);
  cache.insert(key_of(1), 111);
  auto* v = cache.lookup(key_of(1));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 111);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, MissReturnsNullAndCounts) {
  SetAssociativeCache<int> cache(8);
  EXPECT_EQ(cache.lookup(key_of(9)), nullptr);
  EXPECT_EQ(cache.stats().cold_misses, 1u);
  EXPECT_EQ(cache.stats().miss_rate(), 1.0);
}

TEST(Cache, InsertAfterMissPlacesKeyInItsOwnSet) {
  // insert reuses the set index of the lookup that just missed -- but only
  // for that same key. Inserting some other key after a miss must still
  // land where a later lookup finds it, in every hash and associativity.
  for (const CacheHashKind hash :
       {CacheHashKind::kCrc32, CacheHashKind::kModulo,
        CacheHashKind::kXorFold}) {
    for (const std::size_t ways : {1u, 2u}) {
      SetAssociativeCache<int> cache(64, ways, hash);
      for (std::uint64_t i = 0; i < 200; ++i) {
        ASSERT_EQ(cache.lookup(key_of(i)), nullptr);
        cache.insert(key_of(i + 1000), static_cast<int>(i));
        const int* v = cache.peek(key_of(i + 1000));
        ASSERT_NE(v, nullptr) << i;
        EXPECT_EQ(*v, static_cast<int>(i));
        // The missed key itself, inserted next, reuses the remembered set.
        cache.insert(key_of(i), -static_cast<int>(i));
        ASSERT_NE(cache.peek(key_of(i)), nullptr) << i;
      }
    }
  }
}

TEST(Cache, OverwriteSameKey) {
  SetAssociativeCache<int> cache(8);
  cache.insert(key_of(1), 1);
  cache.insert(key_of(1), 2);
  EXPECT_EQ(*cache.lookup(key_of(1)), 2);
}

TEST(Cache, EraseInvalidates) {
  SetAssociativeCache<int> cache(8);
  cache.insert(key_of(1), 1);
  cache.erase(key_of(1));
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
}

TEST(Cache, ClearInvalidatesEverything) {
  SetAssociativeCache<int> cache(8);
  for (std::uint64_t i = 0; i < 8; ++i) cache.insert(key_of(i), 1);
  cache.clear();
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_EQ(cache.lookup(key_of(i)), nullptr);
}

TEST(Cache, PeekDoesNotTouchStats) {
  SetAssociativeCache<int> cache(8);
  cache.insert(key_of(1), 5);
  EXPECT_NE(cache.peek(key_of(1)), nullptr);
  EXPECT_EQ(cache.peek(key_of(2)), nullptr);
  EXPECT_EQ(cache.stats().accesses(), 0u);
}

TEST(Cache, DirectMappedConflictEvicts) {
  // Capacity 4 direct-mapped: two keys hashing to the same set displace
  // each other regardless of the other sets being empty.
  SetAssociativeCache<int> cache(4, 1);
  // Find two keys in the same set.
  util::Bytes a = key_of(0);
  util::Bytes b;
  const std::size_t target = cache_index(CacheHashKind::kCrc32, a, 4);
  for (std::uint64_t i = 1;; ++i) {
    b = key_of(i);
    if (cache_index(CacheHashKind::kCrc32, b, 4) == target) break;
  }
  cache.insert(a, 1);
  cache.insert(b, 2);
  EXPECT_EQ(cache.lookup(a), nullptr);  // evicted by b
  EXPECT_NE(cache.lookup(b), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(Cache, TwoWayAssociativityAvoidsThatConflict) {
  SetAssociativeCache<int> dm(4, 1), sa(4, 2);
  // Same key pair as above: find keys colliding in the 2-set configuration.
  util::Bytes a = key_of(0);
  util::Bytes b;
  const std::size_t target = cache_index(CacheHashKind::kCrc32, a, 2);
  for (std::uint64_t i = 1;; ++i) {
    b = key_of(i);
    if (cache_index(CacheHashKind::kCrc32, b, 2) == target) break;
  }
  sa.insert(a, 1);
  sa.insert(b, 2);
  EXPECT_NE(sa.lookup(a), nullptr);  // both ways hold
  EXPECT_NE(sa.lookup(b), nullptr);
}

TEST(Cache, LruEvictionWithinSet) {
  // One set, 2 ways: the least recently used way is the victim.
  SetAssociativeCache<int> cache(2, 2);
  cache.insert(key_of(1), 1);
  cache.insert(key_of(2), 2);
  (void)cache.lookup(key_of(1));  // 2 becomes LRU
  cache.insert(key_of(3), 3);
  EXPECT_NE(cache.lookup(key_of(1)), nullptr);
  EXPECT_EQ(cache.lookup(key_of(2)), nullptr);
  EXPECT_NE(cache.lookup(key_of(3)), nullptr);
}

TEST(Cache, StatsClassifyAllThreeMissKinds) {
  SetAssociativeCache<int> cache(2, 1);
  // Cold miss:
  (void)cache.lookup(key_of(1));
  cache.insert(key_of(1), 1);
  // Flood with many distinct keys -> capacity territory for key 1.
  for (std::uint64_t i = 10; i < 20; ++i) {
    (void)cache.lookup(key_of(i));
    cache.insert(key_of(i), 1);
  }
  (void)cache.lookup(key_of(1));
  const CacheStats& s = cache.stats();
  EXPECT_GE(s.cold_misses, 11u);
  EXPECT_GE(s.capacity_misses + s.collision_misses, 1u);
  EXPECT_EQ(s.accesses(), s.hits + s.misses());
}

TEST(Cache, CapacityRoundsToWholeSets) {
  SetAssociativeCache<int> cache(7, 2);  // 3 sets * 2 ways
  EXPECT_EQ(cache.capacity(), 6u);
  SetAssociativeCache<int> tiny(0, 1);
  EXPECT_EQ(tiny.capacity(), 1u);
}

class CacheHashSweep : public ::testing::TestWithParam<CacheHashKind> {};

TEST_P(CacheHashSweep, WorkingSetSmallerThanCacheEventuallyAllHits) {
  SetAssociativeCache<int> cache(64, 4, GetParam());
  // 16 keys, cycled 10 times: after the cold pass everything should hit for
  // a well-spread hash; weak hashes may conflict but must stay correct.
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t k = 0; k < 16; ++k) {
      if (!cache.lookup(key_of(k * 1000))) cache.insert(key_of(k * 1000), 1);
    }
  }
  const CacheStats& s = cache.stats();
  EXPECT_EQ(s.accesses(), 160u);
  if (GetParam() == CacheHashKind::kCrc32) {
    // The recommended hash spreads the strided keys: cold misses only.
    EXPECT_EQ(s.misses(), 16u);
    EXPECT_EQ(s.hits, 144u);
  } else {
    // The naive hashes may cluster (that is Section 5.3's point) but the
    // cache must stay correct: every access is a hit or a classified miss.
    EXPECT_EQ(s.hits + s.misses(), 160u);
    EXPECT_GE(s.misses(), 16u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllHashes, CacheHashSweep,
                         ::testing::Values(CacheHashKind::kCrc32,
                                           CacheHashKind::kModulo,
                                           CacheHashKind::kXorFold));

}  // namespace
}  // namespace fbs::core
