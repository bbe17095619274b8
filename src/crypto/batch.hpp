// Cross-datagram batch scheduler for the bitsliced DES engine.
//
// The pipeline hands each worker a *burst* of datagrams per ring visit
// (PR 7's batched rings); this planner turns that burst into kLanes-wide
// bitslice passes (DesBitslice::kLanes, currently 256):
//
//   open (CBC decrypt): block-parallel even within one datagram, because
//   every chain input is ciphertext already in hand. The jobs' blocks form
//   one global sequence, split into kLanes contiguous per-lane runs, so
//   each lane's key changes at most when its cursor crosses a job boundary
//   (incremental set_lane) -- for a single-flow burst there are zero mid-
//   batch rekeys, and an N-flow burst costs at most ~N-1 crossings total.
//
//   seal (CBC encrypt): chains serially within a datagram, so lanes map
//   one job per lane and each pass peels the next block of up to kLanes
//   datagrams (PKCS#7 tail blocks materialized on the fly).
//
// Routing: one cost model (CryptoBatch::Cost, DESIGN.md 5h) prices a wide
// plan -- passes x pass cost, each pass charged for the 64-lane groups it
// lights, plus loading the lane keys (broadcast or mixed) -- against the
// same blocks on the scalar core, and the cheaper side runs. It also
// decides whether an open's last partial pass runs wide or its blocks
// spill to the scalar core. fused_open_batch (fused.hpp), the engine's
// receive open, asks the same predicate (open_goes_wide) before it commits
// a burst to this path, so a routed-scalar burst takes the fused
// decrypt+MAC pass per datagram instead.
//
// The planner itself never allocates; all cursors live on the stack and
// outputs land in caller-provided buffers (the zero-alloc steady-state
// test covers the full pipeline path through here).
#pragma once

#include <cstdint>
#include <span>

#include "crypto/des.hpp"
#include "crypto/des_bitslice.hpp"
#include "util/bytes.hpp"

namespace fbs::crypto {

/// One datagram's CBC-decrypt work order. `ciphertext` must be a non-empty
/// multiple of 8 bytes; `plaintext` receives the same length (padding is
/// NOT stripped here -- callers validate PKCS#7 afterwards, exactly as the
/// scalar path does). Both `des` and `schedule` must be non-null and agree
/// on the key.
struct CbcOpenJob {
  const Des* des = nullptr;
  const DesBitsliceKeySchedule* schedule = nullptr;
  std::uint64_t iv = 0;
  util::BytesView ciphertext;
  std::uint8_t* plaintext = nullptr;
};

/// One datagram's CBC-encrypt work order. `plaintext` is the raw body (any
/// length, including 0); `ciphertext` receives padded_size(plaintext.size())
/// bytes of PKCS#7-padded CBC output.
struct CbcSealJob {
  const Des* des = nullptr;
  const DesBitsliceKeySchedule* schedule = nullptr;
  std::uint64_t iv = 0;
  util::BytesView plaintext;
  std::uint8_t* ciphertext = nullptr;
};

class CryptoBatch {
 public:
  static constexpr std::size_t kLanes = DesBitslice::kLanes;

  /// The routing cost model, in nanoseconds of one core. The constants
  /// were measured with Release builds (-O3 -march=native kernel TUs) on a
  /// 4-vCPU Xeon (AVX-512); DESIGN.md 5h records how. They are fixed, not
  /// configuration: they only decide which of two bit-identical paths runs.
  struct Cost {
    /// One gate-network evaluation (16 rounds, all kLanes lanes) plus the
    /// planner's fixed per-pass work.
    static constexpr double kPassNs = 1800;
    /// Per 64-lane group a pass lights: its two transposes (~200 ns) plus
    /// the planner's per-lane load, chain XOR and store (~400 ns).
    static constexpr double kGroupNs = 600;
    /// Key loading: one broadcast, or per lit group of a mixed-key load
    /// (gather plus one transpose).
    static constexpr double kBroadcastNs = 20;
    static constexpr double kMixedGroupNs = 400;
    /// One CBC block on the scalar core (decrypt; encrypt runs the same
    /// Feistel network with IP/FP hoisted and costs about as much).
    static constexpr double kScalarBlockNs = 115;
    /// A wide plan must be predicted at most this share of the scalar
    /// cost. Within ~20% of break-even the two paths measure within noise
    /// of each other, and the scalar fused pass is the steadier one.
    static constexpr double kWideMargin = 0.8;
  };

  /// What open_cbc does with a burst of `total_blocks` CBC blocks (under
  /// one key, or `mixed_keys`): `passes` wide passes covering the first
  /// `wide_blocks` of the global block sequence, the rest on the scalar
  /// core. passes == 0 means all-scalar, with no lane keys loaded.
  struct OpenPlan {
    std::size_t passes = 0;
    std::size_t wide_blocks = 0;
  };
  static OpenPlan plan_open(std::size_t total_blocks, bool mixed_keys);

  /// The routing predicate: true when open_cbc would run at least one wide
  /// pass over such a burst.
  static bool open_goes_wide(std::size_t total_blocks, bool mixed_keys) {
    return plan_open(total_blocks, mixed_keys).passes != 0;
  }

  /// PKCS#7 always pads, so sealed output is the next full block up.
  static constexpr std::size_t padded_size(std::size_t n) {
    return n / Des::kBlockSize * Des::kBlockSize + Des::kBlockSize;
  }

  void open_cbc(std::span<const CbcOpenJob> jobs);
  void seal_cbc(std::span<const CbcSealJob> jobs);

  /// Counters for tests, benches and the endpoint's metrics (cumulative;
  /// reset_stats to zero).
  struct Stats {
    std::uint64_t bitsliced_blocks = 0;  // blocks through the wide engine
    std::uint64_t scalar_blocks = 0;     // blocks on the scalar fallback
    std::uint64_t passes = 0;            // kLanes-wide engine invocations
    std::uint64_t key_loads = 0;         // set_all_lanes / set_lanes calls
    std::uint64_t lane_rekeys = 0;       // incremental mid-batch set_lane

    Stats& operator+=(const Stats& o);
    Stats operator-(const Stats& o) const;
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  void open_scalar(const CbcOpenJob& job);
  void seal_scalar(const CbcSealJob& job);
  void seal_group(std::span<const CbcSealJob> jobs);

  DesBitslice engine_;
  Stats stats_;
};

}  // namespace fbs::crypto
