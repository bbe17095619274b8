// Striped flow-state domains: the unit of concurrency for the sharded
// datagram engine.
//
// The paper's kernel implementation serializes all of FBSSend/FBSReceive
// inside the 4.4BSD IP stack. Per-flow state, though, is naturally
// partitionable -- nothing on the datagram path ever relates two different
// flows -- so the engine stripes every piece of mutable per-flow state
// (FST/policy, TFKC, RFKC, combined entries, freshness/replay windows,
// confounder generator, stats, stage tracer) into N independent FlowDomain
// shards selected by a flow hash. Two flows on different shards never share
// a lock or a cache line; two datagrams of the same flow always land on the
// same shard, which is what keeps per-flow semantics (replay windows, key
// wear-out counters, FST gap detection) exactly as strong as in the
// single-threaded engine.
//
// Locking contract: FlowDomain::mu is held for the ENTIRE protect of a
// datagram, and the entire unprotect of a receive burst's datagrams that
// belong to that domain (a single datagram is a burst of one). One lock
// for the whole operation is what makes the replay check+commit pair a
// single atomic step per shard (see replay.hpp) and keeps the per-flow
// MacContext safe to mutate. The lock is uncontended unless two threads genuinely race on
// the same flow's shard; its cost is nanoseconds against the tens of
// microseconds of per-datagram cryptography.
//
// Everything here is soft state, exactly as in the unsharded engine:
// clearing any domain at any moment merely costs re-derivation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <variant>
#include <vector>

#include "crypto/algorithms.hpp"
#include "crypto/batch.hpp"
#include "crypto/fused.hpp"
#include "crypto/md5.hpp"
#include "fbs/caches.hpp"
#include "fbs/fam.hpp"
#include "fbs/header.hpp"
#include "fbs/keying.hpp"
#include "fbs/principal.hpp"
#include "fbs/replay.hpp"
#include "obs/stages.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace fbs::core {

struct FbsConfig {
  crypto::AlgorithmSuite suite{};  // keyed MD5 + DES-CBC by default

  /// Flow state table (Figure 7): size and conversation gap threshold.
  /// With sharding, each domain gets its own table of this size.
  std::size_t fst_size = 256;
  util::TimeUs flow_threshold = util::seconds(600);

  /// Flow key caches (per domain, like the FST).
  std::size_t tfkc_size = 256;
  std::size_t rfkc_size = 256;
  CacheHashKind cache_hash = CacheHashKind::kCrc32;
  std::size_t cache_ways = 1;

  /// Section 7.2's optimization: merge the FST and the TFKC so mapper and
  /// key lookup are one probe. false exercises the split Figure 4/6 path.
  bool combined_fst_tfkc = true;

  /// Replay window half-width (Section 6.2) and the optional strict
  /// within-window replay cache extension.
  std::uint32_t freshness_window_minutes = 5;
  bool strict_replay = false;

  /// Key-lifetime policy (Section 5.2: "With use, an encryption key will
  /// 'wear out' and should be changed... rekeying can be easily
  /// accomplished via the FAM by changing the sfl. Rekeying decisions are
  /// made by policy modules."). Zero disables a limit. When a flow exceeds
  /// any limit, the next datagram transparently starts a fresh flow
  /// (fresh sfl, fresh key); the receiver needs no coordination.
  std::uint64_t rekey_after_datagrams = 0;
  std::uint64_t rekey_after_bytes = 0;
  util::TimeUs rekey_after_age = 0;

  /// Open DES-CBC bodies with crypto::fused_open_batch: a burst's blocks
  /// -- across datagrams, or a single large datagram's own -- run on the
  /// 256-lane bitsliced engine when CryptoBatch's cost model says that beats
  /// the scalar core, before per-datagram MAC verification. false forces
  /// the scalar fused decrypt+MAC pass everywhere (the fig8 "DES+MD5
  /// scalar" curve).
  bool bitslice_crypto = true;

  /// Record per-stage latencies on the datagram path. Off by default: the
  /// steady_clock reads would perturb the per-packet CPU measurements of
  /// the Figure 8 bench, so benches opt in for instrumented runs only.
  bool trace_stages = false;

  /// Number of independent flow-state domains (shards). 1 reproduces the
  /// single-threaded engine's exact behaviour; a shard-per-core value lets
  /// a worker pool process distinct flows fully in parallel. 0 is treated
  /// as 1.
  std::size_t shards = 1;

  /// Non-zero selects the million-flow control plane (megaflow.hpp): each
  /// shard's FAM policy becomes a budgeted flat-hash table + timer wheel
  /// holding at most this many concurrent flows, with exact five-tuple
  /// matching and O(expired) sweeps. fst_size is then ignored by the FAM
  /// (it still sizes nothing else), and the combined FST+TFKC path is
  /// disabled -- the Section 7.2 merge assumes the FST is the small
  /// direct-mapped array. Zero keeps the paper's FiveTuplePolicy.
  std::size_t max_flows_per_shard = 0;
};

enum class ReceiveError : std::uint8_t {
  kMalformed,     // header does not parse / unknown suite
  kStale,         // timestamp outside the freshness window
  kReplay,        // strict replay cache rejection
  kUnknownPeer,   // no master key obtainable for the claimed source
  kBadMac,        // MAC mismatch (tampering or wrong flow key)
  kDecryptFailed, // ciphertext malformed
};

inline constexpr std::size_t kReceiveErrorKinds = 6;

const char* to_string(ReceiveError e);

/// A successfully received datagram plus its flow demultiplexing info.
struct ReceivedDatagram {
  Datagram datagram;
  Sfl sfl = 0;
  bool was_secret = false;
  crypto::AlgorithmSuite suite;
};

using ReceiveOutcome = std::variant<ReceivedDatagram, ReceiveError>;

/// Demultiplexing info for the allocation-free receive path: the body lands
/// in the caller's buffer, so only the flow facts travel in the result.
struct ReceivedInfo {
  Sfl sfl = 0;
  bool was_secret = false;
  crypto::AlgorithmSuite suite;
};

using ReceiveIntoOutcome = std::variant<ReceivedInfo, ReceiveError>;

struct SendStats {
  std::uint64_t datagrams = 0;
  std::uint64_t encrypted = 0;
  std::uint64_t flow_keys_derived = 0;  // TFKC / combined-table misses
  std::uint64_t key_unavailable = 0;    // master key could not be obtained
  std::uint64_t lifetime_rekeys = 0;    // flows retired by lifetime policy
};

struct ReceiveStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_malformed = 0;
  std::uint64_t rejected_stale = 0;
  std::uint64_t rejected_replay = 0;
  std::uint64_t rejected_unknown_peer = 0;
  std::uint64_t rejected_bad_mac = 0;
  std::uint64_t rejected_decrypt = 0;
  std::uint64_t flow_keys_derived = 0;  // RFKC misses

  /// The same rejections indexed by ReceiveError, so experiments can report
  /// degraded-mode behaviour generically without naming each field.
  std::array<std::uint64_t, kReceiveErrorKinds> by_kind{};

  std::uint64_t rejected_by(ReceiveError e) const {
    return by_kind[static_cast<std::size_t>(e)];
  }
  std::uint64_t rejected() const {
    return rejected_malformed + rejected_stale + rejected_replay +
           rejected_unknown_peer + rejected_bad_mac + rejected_decrypt;
  }
};

/// The receive datapath's state for one datagram of the burst in flight
/// (FbsEndpoint::unprotect_burst_into). Only the slots a burst uses are
/// written; nothing is reset between bursts.
struct ReceiveSlot {
  /// flags | suite | confounder | timestamp: the MAC's non-payload input.
  static constexpr std::size_t kMacPrefixSize = 10;
  static constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);

  std::optional<FbsHeaderView> header;
  double parse_ns = 0;  // measured outside the lock, recorded inside it
  std::size_t shard = 0;
  bool grouped = false;
  /// The flow's crypto context; null once the datagram is rejected.
  FlowCryptoContext* fctx = nullptr;
  /// rfkc.evictions() right after this datagram's key resolution: if it
  /// moved later in the burst, the context may have been evicted.
  std::uint64_t evictions = 0;
  std::size_t job = kNoJob;  // its fused_open_batch job, if it has one
  bool opened = false;       // plaintext recovered and MAC computed
  std::uint8_t prefix[kMacPrefixSize]{};
  std::uint8_t mac[crypto::kMaxMacSize]{};
};

/// Per-worker scratch making protect_into/unprotect_into re-entrant: every
/// buffer the single-threaded engine kept as an endpoint member now travels
/// with the calling thread. One WorkContext per concurrent caller; reusing
/// it across datagrams preserves the zero-allocation warm path. The context
/// holds no flow state -- it is pure scratch and may be discarded freely.
class WorkContext {
 public:
  /// Datagrams processed together by one pass of the receive datapath;
  /// longer bursts are cut into chunks of this many.
  static constexpr std::size_t kBurstChunk = 64;

  WorkContext();
  WorkContext(const WorkContext&) = delete;
  WorkContext& operator=(const WorkContext&) = delete;

  util::Bytes attrs;       // FlowAttributes encoding for FST/shard probes
  util::Bytes key;         // TFKC/RFKC cache key staging
  util::Bytes body;        // ciphertext staging on send
  util::Bytes master;      // K_{S,D} staging, copied out of the MKC
  crypto::Md5 kdf_hash;    // H of Section 5.2 (need not equal the MAC hash)
  /// The 256-lane bitsliced DES engine plus its batch planner. Per worker,
  /// not per domain: the lane registers are scratch, and keeping them with
  /// the calling thread lets every worker run wide passes concurrently.
  crypto::CryptoBatch batch;

  /// Receive-burst scratch, sized once at construction: kBurstChunk slots
  /// and fused_open_batch jobs, and room for as many contexts re-derived
  /// mid-burst (only ever built when a later datagram's key insert evicted
  /// an earlier one's, or re-suited it).
  std::vector<ReceiveSlot> recv;
  std::vector<crypto::FusedOpenJob> opens;
  std::vector<FlowCryptoContext> rederived;
};

/// One row of the merged FST+TFKC (Section 7.2).
struct CombinedFlowEntry {
  bool valid = false;
  FlowAttributes attrs;
  Sfl sfl = 0;
  FlowCryptoContext ctx;  // ready key schedule + keyed MAC context
  util::TimeUs created = 0;
  util::TimeUs last = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t bytes = 0;
};

/// One shard of the engine's mutable per-flow state. All members are
/// guarded by `mu` (held for a whole datagram operation); the engine is the
/// only writer, tests and the metrics aggregators are read-only consumers
/// that also take the lock.
class FlowDomain {
 public:
  FlowDomain(const FbsConfig& config, const util::Clock& clock,
             SflAllocator& sfl_alloc, std::uint64_t confounder_seed);

  FlowDomain(const FlowDomain&) = delete;
  FlowDomain& operator=(const FlowDomain&) = delete;

  mutable std::mutex mu;
  util::Lcg48 confounder_gen;
  std::unique_ptr<FlowPolicy> policy;
  std::vector<CombinedFlowEntry> combined;  // FST+TFKC merged (Section 7.2)
  SetAssociativeCache<FlowCryptoContext> tfkc;
  SetAssociativeCache<FlowCryptoContext> rfkc;
  FreshnessChecker freshness;
  SendStats send_stats;
  ReceiveStats receive_stats;
  /// CryptoBatch work done for this domain's datagrams, whichever worker's
  /// WorkContext ran it: each call folds its delta in under `mu`.
  crypto::CryptoBatch::Stats batch_stats;
  obs::StageTracer tracer;
};

}  // namespace fbs::core
