#include "fbs/replay.hpp"

namespace fbs::core {

FreshnessChecker::Verdict FreshnessChecker::check(
    std::uint32_t timestamp_minutes, util::BytesView mac) {
  const std::uint32_t now_minutes = util::to_header_minutes(clock_.now());
  if (!in_window(timestamp_minutes, now_minutes)) {
    ++stats_.stale;
    return Verdict::kStale;
  }
  if (strict_replay_) {
    if (const Bucket* b = bucket_for(timestamp_minutes);
        b && b->macs.find(MacKey::of(mac))) {
      ++stats_.replays;
      return Verdict::kReplay;
    }
  }
  ++stats_.fresh;
  return Verdict::kFresh;
}

bool FreshnessChecker::commit(std::uint32_t timestamp_minutes,
                              util::BytesView mac) {
  if (!strict_replay_) return true;
  // Out-of-window commits are dropped: letting a stale minute claim a ring
  // slot could evict a bucket an in-window minute is still using.
  if (!in_window(timestamp_minutes, util::to_header_minutes(clock_.now())))
    return true;
  Bucket& b = ring_[timestamp_minutes % ring_.size()];
  if (b.minute != timestamp_minutes) {
    // The slot's previous minute slid out of the window; repurpose in place
    // (the FlatMap keeps its slot array, so a steady-state checker never
    // reallocates).
    b.minute = timestamp_minutes;
    b.macs.clear();
  }
  return b.macs.try_emplace(MacKey::of(mac), 1).second;
}

}  // namespace fbs::core
