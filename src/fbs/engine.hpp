// The FBS protocol engine: FBSSend() / FBSReceive() of Figure 4, with the
// cache-accelerated send path of Figure 6 and the combined FST+TFKC fast
// path of Section 7.2.
//
// One FbsEndpoint is the protocol half living in one principal. It holds
// only soft state (flow tables and key caches); clearing every cache at any
// moment is safe and merely costs re-derivation, which is what preserves
// datagram semantics.
//
// Concurrency (DESIGN.md section 5f): per-flow state is striped across
// config.shards independent FlowDomains. The WorkContext overloads of
// protect_into/unprotect_into and unprotect_burst_into are re-entrant --
// any number of threads may call them concurrently, each with its own
// WorkContext; the engine holds one domain lock per datagram on send and
// per same-shard group of a burst on receive. The overloads without a
// WorkContext use an internal context and are for single-threaded callers.
// Key management (KeyManager / MKD) is deliberately serial behind its own
// lock: keying is the cold path.
//
// Receive has one datapath, unprotect_burst_into; unprotect and both
// unprotect_into overloads hand it a burst of one.
//
// One deliberate deviation from Figure 4's pseudo-code: the paper computes
// the MAC over the plaintext body on send (S6, before encrypting at S8-9)
// but verifies at R7 *before* decrypting at R10-11, which cannot match for
// secret datagrams. We keep the send order and decrypt before verifying on
// receive; the MAC therefore authenticates the plaintext, as S6 intends.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <variant>

#include "crypto/algorithms.hpp"
#include "fbs/caches.hpp"
#include "fbs/domain.hpp"
#include "fbs/fam.hpp"
#include "fbs/header.hpp"
#include "fbs/keying.hpp"
#include "fbs/principal.hpp"
#include "fbs/replay.hpp"
#include "obs/metrics.hpp"
#include "obs/stages.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace fbs::core {

/// One datagram of a receive burst (see FbsEndpoint::unprotect_burst_into).
/// `source` and `body_out` are caller-owned and must outlive the call;
/// `outcome` is written per item, exactly as unprotect_into would have.
struct ReceiveBurstItem {
  const Principal* source = nullptr;  // claimed sender of this wire
  util::BytesView wire;               // FBSheader || body
  util::Bytes* body_out = nullptr;    // receives the plaintext body
  ReceiveIntoOutcome outcome = ReceiveError::kMalformed;
};

class FbsEndpoint {
 public:
  /// `keys` resolves pair-based master keys (KeyManager -> MKD -> PVC).
  /// `rng` seeds the per-domain confounder LCGs and the sfl counter.
  FbsEndpoint(Principal self, const FbsConfig& config, KeyManager& keys,
              const util::Clock& clock, util::RandomSource& rng);

  /// FBSSend: protect `d` (whose source must be this principal) and return
  /// the wire bytes `FBSheader || body`. nullopt if no master key for the
  /// destination can be obtained.
  std::optional<util::Bytes> protect(const Datagram& d, bool secret);

  /// FBSReceive: validate wire bytes claimed to be from `source`.
  ReceiveOutcome unprotect(const Principal& source, util::BytesView wire);

  /// Allocation-free FBSSend: `wire_out` receives `FBSheader || body`,
  /// reusing its capacity. On a flow-cache hit with warm buffers the whole
  /// call performs zero heap allocations. Returns false if no master key
  /// for the destination can be obtained (wire_out is left cleared).
  /// Uses the endpoint's internal WorkContext: NOT re-entrant.
  bool protect_into(const Datagram& d, bool secret, util::Bytes& wire_out);

  /// Allocation-free FBSReceive of one datagram (a burst of one): the
  /// plaintext body lands in `body_out` (capacity reused). On rejection
  /// body_out's contents are unspecified. Uses the endpoint's internal
  /// WorkContext: NOT re-entrant.
  ReceiveIntoOutcome unprotect_into(const Principal& source,
                                    util::BytesView wire,
                                    util::Bytes& body_out);

  /// Re-entrant FBSSend: safe to call from any number of threads
  /// concurrently, each passing its own WorkContext (and its own wire_out).
  /// Datagrams of distinct flows on distinct shards proceed fully in
  /// parallel; same-shard datagrams serialize on that shard's lock.
  bool protect_into(WorkContext& ctx, const Datagram& d, bool secret,
                    util::Bytes& wire_out);

  /// Re-entrant FBSReceive of one datagram (a burst of one); same
  /// threading contract as the protect_into overload above.
  ReceiveIntoOutcome unprotect_into(WorkContext& ctx,
                                    const Principal& source,
                                    util::BytesView wire,
                                    util::Bytes& body_out);

  /// FBSReceive, the receive datapath. Items are grouped by owning shard
  /// and each group runs under ONE domain lock, in submission order:
  /// admission (header checks, NOP-suite refusal, freshness), flow-key
  /// resolution, open and MAC, then constant-time verify and the replay
  /// commit. Every DES-CBC body of the group goes to one
  /// crypto::fused_open_batch call, which decrypts the group's blocks
  /// across the bitsliced engine's lanes (mixed flow keys included) when
  /// CryptoBatch's cost model says that is faster, and otherwise runs the
  /// scalar fused decrypt+MAC pass per datagram; config().bitslice_crypto
  /// = false takes the fused pass directly. Other suites and plaintext
  /// bodies are opened and MACed per datagram. Check and commit execute
  /// atomically under the shard's lock, so a duplicated wire -- racing
  /// itself from two threads or twice in one burst -- is accepted exactly
  /// once under strict replay. Outcome and plaintext land in each item and
  /// match what a burst of one per item would have produced.
  void unprotect_burst_into(WorkContext& ctx,
                            std::span<ReceiveBurstItem> items);

  /// Force the next datagram matching `attrs` onto a fresh flow (and hence
  /// a fresh key): rekeying "via the FAM by changing the sfl" (Section 5.2).
  void rekey(const FlowAttributes& attrs);

  /// Run the sweeper on every domain (split mode; combined mode expires
  /// lazily).
  std::size_t sweep();

  /// Crash/restart simulation: drop every piece of soft state this endpoint
  /// holds -- flow tables, both flow-key caches, and the freshness/replay
  /// cache, in every domain. Per the paper's soft-state claim this is safe
  /// at any moment and merely costs re-derivation on the next datagram.
  /// (Master-key state lives in the KeyManager/MKD; clear those separately
  /// for a full-host restart.)
  void clear_soft_state();

  /// Wire overhead of the security flow header itself.
  std::size_t header_overhead() const {
    return FbsHeader::overhead(config_.suite);
  }

  /// Worst-case wire growth of protect(): header plus block-cipher padding
  /// (PKCS#7 adds 1..8 bytes under DES ECB/CBC). This is what MTU budgeting
  /// -- the tcp_output.c fix -- must subtract.
  std::size_t max_wire_overhead() const {
    const bool pads =
        config_.suite.cipher == crypto::CipherAlgorithm::kDesCbc ||
        config_.suite.cipher == crypto::CipherAlgorithm::kDesEcb ||
        config_.suite.cipher == crypto::CipherAlgorithm::kDes3Ede;
    return header_overhead() + (pads ? crypto::Des::kBlockSize : 0);
  }

  const Principal& self() const { return self_; }
  const FbsConfig& config() const { return config_; }
  /// Domain 0's policy (the only one when shards == 1, the common
  /// single-threaded configuration).
  FlowPolicy& policy() { return *domains_.front()->policy; }

  // --- Sharding introspection (tests, benches, the pipeline) ---
  std::size_t shard_count() const { return domains_.size(); }
  const FlowDomain& shard(std::size_t i) const { return *domains_[i]; }
  /// Which domain an outgoing datagram with `attrs` lands on.
  std::size_t send_shard_of(const FlowAttributes& attrs) const;
  /// Which domain a received datagram from `source` carrying `sfl` lands
  /// on. Both sides of the hash are wire facts, so every datagram of a
  /// flow -- including replays -- resolves to the same shard.
  std::size_t recv_shard_of(const Principal& source, Sfl sfl) const;
  /// recv_shard_of with the sfl peeked from the wire (unparseable wires go
  /// to the source's sfl-0 shard, which records the malformed rejection).
  std::size_t recv_shard_of_wire(const Principal& source,
                                 util::BytesView wire) const;

  // --- Stats, aggregated across domains ---
  // Each accessor locks every domain in turn and sums into a stable
  // endpoint-owned struct, so the returned reference stays valid (and keeps
  // the pre-sharding signatures) but its contents are a snapshot taken at
  // call time, not a live view. Per-domain figures: shard(i).
  const SendStats& send_stats() const;
  const ReceiveStats& receive_stats() const;
  const CacheStats& tfkc_stats() const;
  const CacheStats& rfkc_stats() const;
  const FreshnessChecker::Stats& freshness_stats() const;
  const FamStats& fam_stats() const;
  /// Bitsliced batch counters (wide/scalar blocks, passes, key loads, lane
  /// rekeys) summed over every WorkContext that decrypted for this
  /// endpoint -- the pipeline workers' included. Lane occupancy is
  /// bitsliced_blocks / (passes * CryptoBatch::kLanes).
  const crypto::CryptoBatch::Stats& batch_stats() const;
  /// Aggregated megaflow control-plane counters; nullptr when the paper's
  /// fixed-table policy is active (max_flows_per_shard == 0). Counters and
  /// footprints sum across shards; map_load_factor reports the worst shard.
  const MegaflowStats* megaflow_stats() const;

  /// Domain 0's tracer (per-domain tracers: shard(i).tracer).
  obs::StageTracer& tracer() { return domains_.front()->tracer; }
  const obs::StageTracer& tracer() const { return domains_.front()->tracer; }

  /// Register every stat this endpoint keeps -- send/receive counters, the
  /// TFKC/RFKC 3C taxonomy, FAM and freshness stats, stage latencies -- as
  /// pull sources under `<prefix>.` dotted names. The endpoint must outlive
  /// `registry`. Counters are aggregated across shards; stage latencies are
  /// per shard (suffix `.shard<i>` when there is more than one).
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const;

 private:
  /// The key-lifetime policy: has a flow with this usage worn its key out?
  /// Both send paths ask it -- the combined path of its CombinedFlowEntry,
  /// the split path of the policy's FlowStateEntry.
  bool key_worn_out(std::uint64_t datagrams, std::uint64_t bytes,
                    util::TimeUs created, util::TimeUs now) const;

  /// Record a rejection in the domain's named field and by-kind array.
  /// Caller holds dom.mu.
  static ReceiveError reject(FlowDomain& dom, ReceiveError e);

  /// Resolve (sfl, crypto context) for an outgoing datagram; combined or
  /// split. Caller holds dom.mu and has encoded d.attrs into ctx.attrs.
  /// The pointer is into the domain's cache and is valid until the next
  /// lookup/insert under the same lock (i.e. for the rest of this
  /// datagram).
  std::optional<std::pair<Sfl, FlowCryptoContext*>> outgoing_flow(
      FlowDomain& dom, WorkContext& ctx, const Datagram& d);
  FlowCryptoContext* incoming_flow_context(FlowDomain& dom, WorkContext& ctx,
                                           const Principal& source, Sfl sfl,
                                           crypto::AlgorithmSuite suite);
  /// The receive-side derivation of an RFKC miss: master key, then K_f,
  /// counted in receive_stats.flow_keys_derived. nullopt if no master key
  /// for `source` can be obtained. Caller holds dom.mu.
  std::optional<FlowKey> derive_incoming(FlowDomain& dom, WorkContext& ctx,
                                         const Principal& source, Sfl sfl);

  // --- The receive datapath (unprotect_burst_into; every other receive
  // entry point is a burst of one). Caller holds dom.mu where noted. ---

  /// One chunk of at most WorkContext::kBurstChunk datagrams: parse, then
  /// per same-shard group under one lock admission, key resolution, open
  /// and MAC, verify and commit.
  void receive_chunk(WorkContext& ctx, std::span<ReceiveBurstItem> items);
  /// Header checks, the wire-chosen NOP-suite refusal and the freshness
  /// check; the rejection, if any. Caller holds dom.mu.
  std::optional<ReceiveError> admit(FlowDomain& dom,
                                    const std::optional<FbsHeaderView>& h);
  /// Re-resolve a datagram's context once no further insert can happen:
  /// the RFKC entry if it still holds the flow under `h.suite`, otherwise
  /// a context rebuilt into ctx.rederived (re-derived if evicted). nullptr
  /// if no master key for `source` can be obtained. Caller holds dom.mu.
  FlowCryptoContext* settled_context(FlowDomain& dom, WorkContext& ctx,
                                     const Principal& source,
                                     const FbsHeaderView& h);
  /// Recover `sl`'s plaintext into `body` and compute its expected MAC, or
  /// queue a DES-CBC body as ctx.opens[nopen++] for fused_open_batch.
  /// Caller holds dom.mu.
  void open_one(FlowDomain& dom, WorkContext& ctx, ReceiveSlot& sl,
                std::size_t& nopen, util::Bytes& body);
  static void cache_key_into(Sfl sfl, const Principal& a, const Principal& b,
                             util::Bytes& out);

  std::size_t shard_index(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash % domains_.size());
  }

  Principal self_;
  FbsConfig config_;
  KeyManager& keys_;
  const util::Clock& clock_;
  SflAllocator sfl_alloc_;  // atomic counter, shared by all domains
  std::vector<std::unique_ptr<FlowDomain>> domains_;

  /// Serves the protect/unprotect overloads that take no WorkContext.
  WorkContext default_ctx_;

  /// Aggregation staging for the stats accessors: mutable so the accessors
  /// can keep returning stable references with const signatures.
  mutable SendStats agg_send_;
  mutable ReceiveStats agg_recv_;
  mutable CacheStats agg_tfkc_;
  mutable CacheStats agg_rfkc_;
  mutable FreshnessChecker::Stats agg_freshness_;
  mutable FamStats agg_fam_;
  mutable MegaflowStats agg_mega_;
  mutable crypto::CryptoBatch::Stats agg_batch_;
};

}  // namespace fbs::core
