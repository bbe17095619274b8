// Replay protection (Section 6.2): a window-based timestamp scheme.
//
// Freshness is a sliding window centered on the receiver's current time; no
// hard state and no nonce agreement, at the cost of loose time
// synchronization. The paper concedes that replays *within* the window
// succeed and leaves tighter protection to higher layers; as an optional
// extension we add a bounded soft-state cache of recently accepted MACs
// that also rejects within-window replays (off by default -- it is soft
// state, so losing it degrades to the paper's behaviour, never worse).
//
// The seen-MAC store is a ring of minute buckets, one FlatMap per bucket,
// keyed by a fixed-size MacKey (first bytes + a 64-bit hash of the whole
// MAC). Probes never allocate -- the old std::map<minute, std::set<Bytes>>
// materialized a util::Bytes per check(), which at a million datagrams a
// second is the allocator, not the MAC, on the critical path. Buckets are
// repurposed lazily as the window slides, so there is no prune walk either.
//
// Concurrency: a FreshnessChecker is not internally synchronized. Each
// FlowDomain owns one, and the engine holds that domain's lock from before
// check() until after commit() -- the check/commit pair executes as ONE
// critical section per datagram. This closes the check-then-act window the
// split API would otherwise open: two threads racing the same duplicated
// wire both pass check() only if they interleave between one thread's check
// and its commit, which the domain lock makes impossible. Replay semantics
// are therefore per flow and exactly as strong as in the serial engine
// (every datagram of a flow hashes to the same domain; see domain.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/flat_map.hpp"
#include "util/flow_hash.hpp"

namespace fbs::core {

class FreshnessChecker {
 public:
  enum class Verdict { kFresh, kStale, kReplay };

  struct Stats {
    std::uint64_t fresh = 0;
    std::uint64_t stale = 0;
    std::uint64_t replays = 0;
  };

  /// `window_minutes` is the half-width: a timestamp within +/- window of
  /// the local clock is fresh. `strict_replay` enables the seen-MAC cache.
  FreshnessChecker(const util::Clock& clock, std::uint32_t window_minutes,
                   bool strict_replay = false)
      : clock_(clock),
        window_(window_minutes),
        strict_replay_(strict_replay) {
    // [now - w, now + w] spans 2w+1 distinct minutes; 2w+2 slots guarantee
    // no two in-window minutes share a ring slot.
    if (strict_replay_) ring_.resize(2 * static_cast<std::size_t>(window_) + 2);
  }

  /// Check a header timestamp; `mac` identifies the datagram for the
  /// optional within-window replay cache. Read-only: an unverified datagram
  /// must not mutate the seen-set, or an attacker who forwards a captured
  /// header with a forged body would poison the cache and get the genuine
  /// datagram rejected as a replay. Call commit() once the MAC verifies.
  Verdict check(std::uint32_t timestamp_minutes, util::BytesView mac);

  /// Record an accepted datagram's MAC in the within-window replay cache.
  /// Only call after MAC verification succeeds. Returns false -- the
  /// datagram is a replay -- when the MAC is already there: every datagram
  /// of a receive burst passes check() before any of them commits, so two
  /// copies of one wire inside a single locked burst both pass check(), and
  /// commit is what refuses the second. Always true unless strict replay is
  /// enabled (window-only freshness admits within-window duplicates by
  /// design).
  bool commit(std::uint32_t timestamp_minutes, util::BytesView mac);

  /// Forget all recently seen MACs (crash/restart simulation). Degrades to
  /// the paper's window-only freshness check until the cache refills.
  void clear() {
    for (Bucket& b : ring_) {
      b.minute = kNoMinute;
      b.macs.clear();
    }
  }

  const Stats& stats() const { return stats_; }

  /// Heap held by the seen-MAC store (slot arrays of the per-minute maps).
  std::size_t approx_memory_bytes() const {
    std::size_t n = ring_.capacity() * sizeof(Bucket);
    for (const Bucket& b : ring_) n += b.macs.memory_bytes();
    return n;
  }

 private:
  /// Fixed-footprint MAC identity: the leading bytes plus a 64-bit hash of
  /// the full MAC, so MACs longer than the inline head still compare
  /// distinctly (up to a 2^-64 hash collision, which at worst flags one
  /// extra soft-state replay -- never weaker than the paper's window-only
  /// scheme).
  struct MacKey {
    std::uint64_t full_hash = 0;
    std::array<std::uint8_t, 24> head{};
    std::uint8_t len = 0;

    static MacKey of(util::BytesView mac) {
      MacKey k;
      k.full_hash = util::flow_hash64(mac);
      const std::size_t n = mac.size() < k.head.size() ? mac.size() : k.head.size();
      for (std::size_t i = 0; i < n; ++i) k.head[i] = mac[i];
      k.len = static_cast<std::uint8_t>(
          mac.size() > 0xFF ? 0xFF : mac.size());
      return k;
    }
    bool operator==(const MacKey& o) const {
      return full_hash == o.full_hash && len == o.len && head == o.head;
    }
  };
  struct MacKeyHash {
    std::uint64_t operator()(const MacKey& k) const { return k.full_hash; }
  };

  static constexpr std::uint32_t kNoMinute = 0xFFFFFFFFu;

  struct Bucket {
    std::uint32_t minute = kNoMinute;
    util::FlatMap<MacKey, char, MacKeyHash> macs;
  };

  bool in_window(std::uint32_t timestamp_minutes,
                 std::uint32_t now_minutes) const {
    const std::uint32_t lo = now_minutes > window_ ? now_minutes - window_ : 0;
    return timestamp_minutes >= lo &&
           timestamp_minutes <= now_minutes + window_;
  }

  const Bucket* bucket_for(std::uint32_t minute) const {
    if (ring_.empty()) return nullptr;
    const Bucket& b = ring_[minute % ring_.size()];
    return b.minute == minute ? &b : nullptr;
  }

  const util::Clock& clock_;
  std::uint32_t window_;
  bool strict_replay_;
  Stats stats_;
  std::vector<Bucket> ring_;  // minute-bucket ring, lazily repurposed
};

}  // namespace fbs::core
