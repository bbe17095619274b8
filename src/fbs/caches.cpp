#include "fbs/caches.hpp"

namespace fbs::core {

std::size_t cache_index(CacheHashKind kind, util::BytesView key,
                        std::size_t nsets) {
  if (nsets <= 1) return 0;
  switch (kind) {
    case CacheHashKind::kCrc32:
      return util::crc32(key) % nsets;
    case CacheHashKind::kModulo: {
      // Interpret the trailing 8 bytes as an integer -- the "simple modulo"
      // hash Section 5.3 warns provides little randomness on correlated
      // inputs.
      std::uint64_t v = 0;
      const std::size_t start = key.size() > 8 ? key.size() - 8 : 0;
      for (std::size_t i = start; i < key.size(); ++i) v = v << 8 | key[i];
      return v % nsets;
    }
    case CacheHashKind::kXorFold: {
      std::uint32_t v = 0;
      std::uint32_t word = 0;
      int n = 0;
      for (std::uint8_t b : key) {
        word = word << 8 | b;
        if (++n == 4) {
          v ^= word;
          word = 0;
          n = 0;
        }
      }
      if (n) v ^= word;
      return v % nsets;
    }
  }
  return 0;
}

void MissClassifier::unlink(std::uint32_t i) {
  Node& n = nodes_[i];
  (n.newer == kNone ? mru_ : nodes_[n.newer].older) = n.older;
  (n.older == kNone ? lru_ : nodes_[n.older].newer) = n.newer;
}

void MissClassifier::push_front(std::uint32_t i) {
  Node& n = nodes_[i];
  n.newer = kNone;
  n.older = mru_;
  (mru_ == kNone ? lru_ : nodes_[mru_].newer) = i;
  mru_ = i;
}

void MissClassifier::touch(std::uint32_t i) {
  if (i == mru_) return;
  unlink(i);
  push_front(i);
}

void MissClassifier::note_evicted(util::BytesView key) {
  if (ever_evicted_.empty()) ever_evicted_.assign(kBloomWords, 0);
  const std::uint64_t h1 = util::flow_hash64(key);
  const std::uint64_t h2 = util::mix64(h1) | 1;  // odd stride
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t bit = (h1 + i * h2) % (kBloomWords * 64);
    ever_evicted_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
}

bool MissClassifier::ever_evicted(util::BytesView key) const {
  if (ever_evicted_.empty()) return false;
  const std::uint64_t h1 = util::flow_hash64(key);
  const std::uint64_t h2 = util::mix64(h1) | 1;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t bit = (h1 + i * h2) % (kBloomWords * 64);
    if (!(ever_evicted_[bit >> 6] & std::uint64_t{1} << (bit & 63)))
      return false;
  }
  return true;
}

void MissClassifier::insert(util::BytesView key) {
  std::uint32_t i;
  if (index_.size() < capacity_) {
    if (nodes_.empty()) {
      // Sized once: a full shadow recycles its slots and never allocates.
      nodes_.reserve(capacity_);
      index_.reserve(capacity_);
    }
    i = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  } else {
    // Full: the LRU key leaves the shadow. Its reuse distance is now at
    // least the capacity, so its next miss is a capacity miss.
    i = lru_;
    Node& victim = nodes_[i];
    note_evicted(victim.key);
    index_.erase(util::BytesView{victim.key});
    unlink(i);
  }
  Node& n = nodes_[i];
  key_bytes_ -= n.key.capacity();
  n.key.assign(key.begin(), key.end());
  key_bytes_ += n.key.capacity();
  index_.try_emplace(util::BytesView{n.key}, i);
  push_front(i);
}

MissClassifier::MissKind MissClassifier::classify_miss(util::BytesView key) {
  if (const std::uint32_t* i = index_.find(key)) {
    // A fully associative LRU cache of the same size would have hit: the
    // miss is due to set conflicts only.
    touch(*i);
    return MissKind::kCollision;
  }
  const MissKind kind =
      ever_evicted(key) ? MissKind::kCapacity : MissKind::kCold;
  insert(key);
  return kind;
}

void MissClassifier::record_hit(util::BytesView key) {
  if (const std::uint32_t* i = index_.find(key)) {
    touch(*i);
    return;
  }
  insert(key);
}

}  // namespace fbs::core
