#include "fbs/engine.hpp"

#include <cassert>
#include <chrono>
#include <mutex>

#include "crypto/fused.hpp"
#include "util/flow_hash.hpp"

namespace fbs::core {

namespace {

/// The MAC's non-payload input: flags byte, suite byte, 4-byte confounder,
/// 4-byte timestamp (Section 5.2 keys the MAC on Kf over confounder,
/// timestamp and payload; we additionally cover the flags and algorithm
/// bytes we carry, because neither participates in any other computation
/// when the body is plaintext -- fuzzing found that an on-path attacker
/// could rewrite the cipher nibble of a non-secret datagram and still have
/// it accepted). Written into a stack buffer on the datagram path.
constexpr std::size_t kMacPrefixSize = 10;

void mac_prefix_into(std::uint8_t flags, std::uint8_t suite,
                     std::uint32_t confounder, std::uint32_t timestamp,
                     std::uint8_t out[kMacPrefixSize]) {
  out[0] = flags;
  out[1] = suite;
  for (int i = 0; i < 4; ++i) {
    out[2 + i] = static_cast<std::uint8_t>(confounder >> (24 - 8 * i));
    out[6 + i] = static_cast<std::uint8_t>(timestamp >> (24 - 8 * i));
  }
}

/// Section 7.2: the 32-bit confounder is duplicated into the 64-bit DES IV.
std::uint64_t confounder_iv(std::uint32_t confounder) {
  return static_cast<std::uint64_t>(confounder) << 32 | confounder;
}

/// Stack room for any MAC tag we produce (MD5 = 16, SHA-1 = 20).
constexpr std::size_t kMaxMacSize = 64;

/// Domain separation for the two shard-selection hash consumers. Send-side
/// shards key on the encoded FlowAttributes; receive-side shards key on
/// (source principal address, sfl) -- both are per-flow constants, so every
/// datagram of a flow lands on the same shard.
constexpr std::uint64_t kSendShardSeed = 0x5342'5353'454E'4421ull;
constexpr std::uint64_t kRecvShardSeed = 0x5342'5352'4543'5621ull;

void accumulate(SendStats& into, const SendStats& s) {
  into.datagrams += s.datagrams;
  into.encrypted += s.encrypted;
  into.flow_keys_derived += s.flow_keys_derived;
  into.key_unavailable += s.key_unavailable;
  into.lifetime_rekeys += s.lifetime_rekeys;
}

void accumulate(ReceiveStats& into, const ReceiveStats& s) {
  into.accepted += s.accepted;
  into.rejected_malformed += s.rejected_malformed;
  into.rejected_stale += s.rejected_stale;
  into.rejected_replay += s.rejected_replay;
  into.rejected_unknown_peer += s.rejected_unknown_peer;
  into.rejected_bad_mac += s.rejected_bad_mac;
  into.rejected_decrypt += s.rejected_decrypt;
  into.flow_keys_derived += s.flow_keys_derived;
  for (std::size_t i = 0; i < kReceiveErrorKinds; ++i)
    into.by_kind[i] += s.by_kind[i];
}

void accumulate(CacheStats& into, const CacheStats& s) {
  into.hits += s.hits;
  into.cold_misses += s.cold_misses;
  into.capacity_misses += s.capacity_misses;
  into.collision_misses += s.collision_misses;
}

void accumulate(FreshnessChecker::Stats& into,
                const FreshnessChecker::Stats& s) {
  into.fresh += s.fresh;
  into.stale += s.stale;
  into.replays += s.replays;
}

void accumulate(FamStats& into, const FamStats& s) {
  into.datagrams += s.datagrams;
  into.flows_created += s.flows_created;
  into.mapper_hits += s.mapper_hits;
  into.hash_evictions += s.hash_evictions;
  into.mapper_expirations += s.mapper_expirations;
  into.sweeper_expirations += s.sweeper_expirations;
}

}  // namespace

const char* to_string(ReceiveError e) {
  switch (e) {
    case ReceiveError::kMalformed: return "malformed";
    case ReceiveError::kStale: return "stale";
    case ReceiveError::kReplay: return "replay";
    case ReceiveError::kUnknownPeer: return "unknown-peer";
    case ReceiveError::kBadMac: return "bad-mac";
    case ReceiveError::kDecryptFailed: return "decrypt-failed";
  }
  return "?";
}

FbsEndpoint::FbsEndpoint(Principal self, const FbsConfig& config,
                         KeyManager& keys, const util::Clock& clock,
                         util::RandomSource& rng)
    : self_(std::move(self)),
      config_(config),
      keys_(keys),
      clock_(clock),
      sfl_alloc_(rng) {
  config_.shards = config_.shards == 0 ? 1 : config_.shards;
  // The Section 7.2 merged FST+TFKC assumes the FST is the small
  // direct-mapped array; the budgeted megaflow table replaces both halves
  // of that bargain, so the split path is forced on.
  if (config_.max_flows_per_shard != 0) config_.combined_fst_tfkc = false;
  // Every Mac the receive path could consult, built once. Mac instances are
  // immutable (make_context is const) so all domains and workers share
  // these; the per-flow MacContexts they key live in domain caches under
  // the domain lock.
  for (const auto alg :
       {crypto::MacAlgorithm::kKeyedMd5, crypto::MacAlgorithm::kHmacMd5,
        crypto::MacAlgorithm::kKeyedSha1, crypto::MacAlgorithm::kHmacSha1,
        crypto::MacAlgorithm::kNull}) {
    suite_macs_[static_cast<std::size_t>(alg)] = crypto::make_mac(alg);
  }
  domains_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    domains_.push_back(std::make_unique<FlowDomain>(config_, clock_,
                                                    sfl_alloc_,
                                                    rng.next_u64()));
}

const crypto::Mac& FbsEndpoint::suite_mac(crypto::MacAlgorithm alg) const {
  const std::size_t idx = static_cast<std::size_t>(alg);
  assert(idx < suite_macs_.size() && suite_macs_[idx] != nullptr);
  return *suite_macs_[idx];
}

void FbsEndpoint::cache_key_into(Sfl sfl, const Principal& a,
                                 const Principal& b, util::Bytes& out) {
  // TFKC index is (sfl, D, S); RFKC is (sfl, S, D). Including the local
  // principal covers multi-homed hosts (footnote 7).
  out.clear();
  for (int i = 7; i >= 0; --i)
    out.push_back(static_cast<std::uint8_t>(sfl >> (8 * i)));
  out.insert(out.end(), a.address.begin(), a.address.end());
  out.insert(out.end(), b.address.begin(), b.address.end());
}

std::size_t FbsEndpoint::send_shard_of(const FlowAttributes& attrs) const {
  util::Bytes enc;
  attrs.encode_into(enc);
  return shard_index(util::flow_hash64(enc, kSendShardSeed));
}

std::size_t FbsEndpoint::recv_shard_of(const Principal& source,
                                       Sfl sfl) const {
  return shard_index(util::flow_hash_combine(
      util::flow_hash64(source.address, kRecvShardSeed), sfl));
}

std::size_t FbsEndpoint::recv_shard_of_wire(const Principal& source,
                                            util::BytesView wire) const {
  const auto header = FbsHeaderView::parse(wire);
  return recv_shard_of(source, header ? header->sfl : 0);
}

bool FbsEndpoint::key_worn_out(const CombinedFlowEntry& e,
                               util::TimeUs now) const {
  if (config_.rekey_after_datagrams &&
      e.datagrams >= config_.rekey_after_datagrams)
    return true;
  if (config_.rekey_after_bytes && e.bytes >= config_.rekey_after_bytes)
    return true;
  if (config_.rekey_after_age && now - e.created >= config_.rekey_after_age)
    return true;
  return false;
}

std::optional<std::pair<Sfl, FlowCryptoContext*>> FbsEndpoint::outgoing_flow(
    FlowDomain& dom, WorkContext& ctx, const Datagram& d) {
  const util::TimeUs now = clock_.now();

  if (config_.combined_fst_tfkc) {
    // Section 7.2 fast path: one CRC-32 probe resolves both the flow
    // mapping and the flow key; the sweeper is absorbed into the mapper.
    // ctx.attrs already holds the encoded attributes (the caller encoded
    // them to pick this domain).
    const std::size_t idx =
        cache_index(config_.cache_hash, ctx.attrs, dom.combined.size());
    CombinedFlowEntry& e = dom.combined[idx];
    if (e.valid && e.attrs == d.attrs &&
        !flow_expired(e.last, now, config_.flow_threshold)) {
      if (key_worn_out(e, now)) {
        ++dom.send_stats.lifetime_rekeys;
        e.valid = false;  // retire the worn key; fall through to a new flow
      } else {
        e.last = now;
        ++e.datagrams;
        e.bytes += d.body.size();
        return std::make_pair(e.sfl, &e.ctx);
      }
    }
    if (!keys_.master_key_into(d.destination, ctx.master)) return std::nullopt;
    const Sfl sfl = sfl_alloc_.allocate();
    ++dom.send_stats.flow_keys_derived;
    auto derive_timer = dom.tracer.start(obs::Stage::kSendKeyDerive);
    e.ctx = make_flow_crypto_context(
        derive_flow_key(ctx.kdf_hash, sfl, ctx.master, self_, d.destination),
        config_.suite, suite_mac(config_.suite.mac));
    derive_timer.finish();
    e.valid = true;
    e.attrs = d.attrs;
    e.sfl = sfl;
    e.created = e.last = now;
    e.datagrams = 1;
    e.bytes = d.body.size();
    return std::make_pair(sfl, &e.ctx);
  }

  // Split path (Figures 4 and 6): FAM classification, then TFKC. The
  // lifetime policy module consults the FAM's entry and retires worn flows.
  if (const FlowStateEntry* entry = dom.policy->find(d.attrs)) {
    const bool worn =
        (config_.rekey_after_datagrams &&
         entry->datagrams >= config_.rekey_after_datagrams) ||
        (config_.rekey_after_bytes &&
         entry->bytes >= config_.rekey_after_bytes) ||
        (config_.rekey_after_age &&
         now - entry->created >= config_.rekey_after_age);
    if (worn) {
      ++dom.send_stats.lifetime_rekeys;
      dom.policy->expire_flow(d.attrs);
    }
  }
  const MapResult mapping = dom.policy->map(d, now);
  cache_key_into(mapping.sfl, d.destination, self_, ctx.key);
  if (auto* cached = dom.tfkc.lookup(ctx.key))
    return std::make_pair(mapping.sfl, cached);
  if (!keys_.master_key_into(d.destination, ctx.master)) return std::nullopt;
  ++dom.send_stats.flow_keys_derived;
  auto derive_timer = dom.tracer.start(obs::Stage::kSendKeyDerive);
  FlowCryptoContext* fctx = dom.tfkc.insert(
      ctx.key, make_flow_crypto_context(
                   derive_flow_key(ctx.kdf_hash, mapping.sfl, ctx.master,
                                   self_, d.destination),
                   config_.suite, suite_mac(config_.suite.mac)));
  derive_timer.finish();
  return std::make_pair(mapping.sfl, fctx);
}

bool FbsEndpoint::protect_into(WorkContext& ctx, const Datagram& d,
                               bool secret, util::Bytes& wire_out) {
  wire_out.clear();
  d.attrs.encode_into(ctx.attrs);
  FlowDomain& dom =
      *domains_[shard_index(util::flow_hash64(ctx.attrs, kSendShardSeed))];
  // One lock for the whole datagram: flow resolution, key wear-out
  // accounting, confounder draw, MAC/cipher, and stats all belong to this
  // domain.
  std::lock_guard<std::mutex> lock(dom.mu);

  auto classify_timer = dom.tracer.start(obs::Stage::kSendClassify);
  const auto flow = outgoing_flow(dom, ctx, d);
  classify_timer.finish();
  if (!flow) {
    ++dom.send_stats.key_unavailable;
    return false;
  }
  const auto& [sfl, fctx] = *flow;

  FbsHeaderView header;
  header.suite = config_.suite;
  header.sfl = sfl;
  header.confounder = dom.confounder_gen.step32();
  header.timestamp_minutes = util::to_header_minutes(clock_.now());
  header.secret =
      secret && config_.suite.cipher != crypto::CipherAlgorithm::kNone;

  std::uint8_t prefix[kMacPrefixSize];
  mac_prefix_into(header.flags_byte(), header.suite_byte(),
                  header.confounder, header.timestamp_minutes, prefix);
  std::uint8_t mac_buf[kMaxMacSize];
  const std::size_t mac_n = fctx->mac->mac_size();

  util::BytesView body;
  if (header.secret &&
      config_.suite.mac == crypto::MacAlgorithm::kKeyedMd5 &&
      config_.suite.cipher == crypto::CipherAlgorithm::kDesCbc) {
    // Section 5.3 single-pass optimization: MAC and encryption in one loop
    // over the payload (bit-identical to the two-pass path).
    auto fused_timer = dom.tracer.start(obs::Stage::kSendFused);
    crypto::fused_seal_into(*fctx->des, confounder_iv(header.confounder),
                            *fctx->mac, {prefix, kMacPrefixSize}, d.body,
                            mac_buf, ctx.body);
    body = ctx.body;
    ++dom.send_stats.encrypted;
  } else {
    {
      auto mac_timer = dom.tracer.start(obs::Stage::kSendMac);
      fctx->mac->compute_into({{prefix, kMacPrefixSize}, d.body}, mac_buf);
    }
    if (header.secret) {
      auto cipher_timer = dom.tracer.start(obs::Stage::kSendCipher);
      const auto mode = *crypto::cipher_mode(config_.suite.cipher);
      const std::uint64_t iv = confounder_iv(header.confounder);
      if (fctx->des3)
        crypto::encrypt_into(*fctx->des3, mode, iv, d.body, ctx.body);
      else
        crypto::encrypt_into(*fctx->des, mode, iv, d.body, ctx.body);
      body = ctx.body;
      ++dom.send_stats.encrypted;
    } else {
      body = d.body;
    }
  }
  header.mac = {mac_buf, mac_n};

  ++dom.send_stats.datagrams;
  auto wire_timer = dom.tracer.start(obs::Stage::kSendWire);
  wire_out.reserve(FbsHeader::kFixedSize + mac_n + body.size());
  header.serialize_into(wire_out);
  wire_out.insert(wire_out.end(), body.begin(), body.end());
  return true;
}

bool FbsEndpoint::protect_into(const Datagram& d, bool secret,
                               util::Bytes& wire_out) {
  return protect_into(default_ctx_, d, secret, wire_out);
}

std::optional<util::Bytes> FbsEndpoint::protect(const Datagram& d,
                                                bool secret) {
  util::Bytes wire;
  if (!protect_into(d, secret, wire)) return std::nullopt;
  return wire;
}

FlowCryptoContext* FbsEndpoint::incoming_flow_context(
    FlowDomain& dom, WorkContext& ctx, const Principal& source, Sfl sfl,
    crypto::AlgorithmSuite suite) {
  cache_key_into(sfl, source, self_, ctx.key);
  if (auto* cached = dom.rfkc.lookup(ctx.key)) {
    // A receiver can see the same sfl under a different header suite; the
    // rare mismatch rebuilds the contexts from the cached key.
    ensure_suite(*cached, suite, suite_mac(suite.mac));
    return cached;
  }
  const std::optional<FlowKey> key = derive_incoming(dom, ctx, source, sfl);
  if (!key) return nullptr;
  return dom.rfkc.insert(
      ctx.key, make_flow_crypto_context(*key, suite, suite_mac(suite.mac)));
}

std::optional<FlowKey> FbsEndpoint::derive_incoming(FlowDomain& dom,
                                                    WorkContext& ctx,
                                                    const Principal& source,
                                                    Sfl sfl) {
  if (!keys_.master_key_into(source, ctx.master)) return std::nullopt;
  ++dom.receive_stats.flow_keys_derived;
  return derive_flow_key(ctx.kdf_hash, sfl, ctx.master, source, self_);
}

ReceiveError FbsEndpoint::reject(FlowDomain& dom, ReceiveError e) {
  ReceiveStats& rs = dom.receive_stats;
  ++rs.by_kind[static_cast<std::size_t>(e)];
  switch (e) {
    case ReceiveError::kMalformed: ++rs.rejected_malformed; break;
    case ReceiveError::kStale: ++rs.rejected_stale; break;
    case ReceiveError::kReplay: ++rs.rejected_replay; break;
    case ReceiveError::kUnknownPeer: ++rs.rejected_unknown_peer; break;
    case ReceiveError::kBadMac: ++rs.rejected_bad_mac; break;
    case ReceiveError::kDecryptFailed: ++rs.rejected_decrypt; break;
  }
  return e;
}

void FbsEndpoint::open_batch(FlowDomain& dom, WorkContext& ctx,
                             std::span<const crypto::CbcOpenJob> jobs) {
  const crypto::CryptoBatch::Stats before = ctx.batch.stats();
  ctx.batch.open_cbc(jobs);
  dom.batch_stats += ctx.batch.stats() - before;
}

ReceiveIntoOutcome FbsEndpoint::unprotect_item_locked(
    FlowDomain& dom, WorkContext& ctx, const Principal& source,
    const FbsHeaderView& header, util::Bytes& body_out) {
  // The header's algorithm field is attacker-controlled, and the NOP suite's
  // "MAC" is a public constant: honoring a wire-chosen kNull suite would let
  // anyone forge datagrams carrying sixteen zero bytes as the tag. Only an
  // endpoint explicitly configured for NOP measurement runs may accept it.
  if (header.suite.mac == crypto::MacAlgorithm::kNull &&
      config_.suite.mac != crypto::MacAlgorithm::kNull)
    return reject(dom, ReceiveError::kMalformed);

  // (R3-4) freshness before any cryptography: stale datagrams cost nothing.
  // The check is read-only; the seen-MAC cache is only committed to after
  // the MAC verifies, so a forged body cannot poison it (see replay.hpp).
  auto fresh_timer = dom.tracer.start(obs::Stage::kRecvFreshness);
  const auto verdict =
      dom.freshness.check(header.timestamp_minutes, header.mac);
  fresh_timer.finish();
  switch (verdict) {
    case FreshnessChecker::Verdict::kFresh:
      break;
    case FreshnessChecker::Verdict::kStale:
      return reject(dom, ReceiveError::kStale);
    case FreshnessChecker::Verdict::kReplay:
      return reject(dom, ReceiveError::kReplay);
  }

  // (R5-6) recover the flow's crypto context from the sfl (RFKC-cached:
  // a hit returns the ready DES schedule and keyed MAC state).
  auto key_timer = dom.tracer.start(obs::Stage::kRecvKey);
  FlowCryptoContext* fctx =
      incoming_flow_context(dom, ctx, source, header.sfl, header.suite);
  key_timer.finish();
  if (!fctx) return reject(dom, ReceiveError::kUnknownPeer);

  std::uint8_t prefix[kMacPrefixSize];
  mac_prefix_into(header.flags_byte(), header.suite_byte(),
                  header.confounder, header.timestamp_minutes, prefix);
  std::uint8_t mac_buf[kMaxMacSize];
  const std::size_t mac_n = fctx->mac->mac_size();

  // (R10-11 first for secret datagrams -- see the header-comment deviation
  // note): recover the plaintext the MAC was computed over, computing the
  // expected MAC in the same pass where the suite allows it.
  if (header.secret) {
    const auto mode = crypto::cipher_mode(header.suite.cipher);
    if (!mode || (!fctx->des && !fctx->des3))
      return reject(dom, ReceiveError::kMalformed);
    const std::uint64_t iv = confounder_iv(header.confounder);
    if (fctx->des && fctx->bitslice && config_.bitslice_crypto &&
        header.suite.cipher == crypto::CipherAlgorithm::kDesCbc &&
        !header.body.empty() &&
        header.body.size() % crypto::Des::kBlockSize == 0 &&
        crypto::CryptoBatch::open_goes_wide(
            header.body.size() / crypto::Des::kBlockSize, false)) {
      // Single-datagram bitslice path: CBC decrypt is block-parallel, so a
      // large body splits its own blocks across the 256 lanes (a 1408-byte
      // body is 176 blocks -- one pass at 69% lane occupancy).
      auto batch_timer = dom.tracer.start(obs::Stage::kRecvBatchCrypto);
      body_out.resize(header.body.size());
      const crypto::CbcOpenJob job{&*fctx->des, &*fctx->bitslice, iv,
                                   header.body, body_out.data()};
      open_batch(dom, ctx, {&job, 1});
      batch_timer.finish();
      if (!crypto::detail::pkcs7_unpad_in_place(body_out))
        return reject(dom, ReceiveError::kDecryptFailed);
      auto mac_timer = dom.tracer.start(obs::Stage::kRecvMac);
      fctx->mac->compute_into({{prefix, kMacPrefixSize}, body_out}, mac_buf);
    } else if (fctx->des &&
               header.suite.cipher == crypto::CipherAlgorithm::kDesCbc) {
      auto fused_timer = dom.tracer.start(obs::Stage::kRecvFused);
      const bool ok = crypto::fused_open_into(
          *fctx->des, iv, *fctx->mac, {prefix, kMacPrefixSize}, header.body,
          mac_buf, body_out);
      fused_timer.finish();
      if (!ok) return reject(dom, ReceiveError::kDecryptFailed);
    } else {
      auto cipher_timer = dom.tracer.start(obs::Stage::kRecvCipher);
      const bool ok =
          fctx->des3 ? crypto::decrypt_into(*fctx->des3, *mode, iv,
                                            header.body, body_out)
                     : crypto::decrypt_into(*fctx->des, *mode, iv,
                                            header.body, body_out);
      cipher_timer.finish();
      if (!ok) return reject(dom, ReceiveError::kDecryptFailed);
      auto mac_timer = dom.tracer.start(obs::Stage::kRecvMac);
      fctx->mac->compute_into({{prefix, kMacPrefixSize}, body_out}, mac_buf);
    }
  } else {
    body_out.assign(header.body.begin(), header.body.end());
    auto mac_timer = dom.tracer.start(obs::Stage::kRecvMac);
    fctx->mac->compute_into({{prefix, kMacPrefixSize}, body_out}, mac_buf);
  }

  // (R7-9) the MAC covers flags | suite | confounder | timestamp | plaintext
  // body: every header bit is either authenticated here or validated by
  // parse (version, reserved flags) or by key selection (sfl).
  if (!util::ct_equal({mac_buf, mac_n}, header.mac))
    return reject(dom, ReceiveError::kBadMac);

  // Only a verified datagram may enter the strict-replay seen-set. Still
  // inside this flow's critical section: check+commit is atomic per shard.
  dom.freshness.commit(header.timestamp_minutes, header.mac);

  ++dom.receive_stats.accepted;
  return ReceivedInfo{header.sfl, header.secret, header.suite};
}

ReceiveIntoOutcome FbsEndpoint::unprotect_into(WorkContext& ctx,
                                               const Principal& source,
                                               util::BytesView wire,
                                               util::Bytes& body_out) {
  // Parse before taking any lock: it reads only the wire, and the sfl it
  // yields picks the owning domain. The parse duration is measured here and
  // recorded under the domain lock (tracer recorders are domain state).
  const bool tracing = config_.trace_stages;
  std::chrono::steady_clock::time_point parse_start;
  if (tracing) parse_start = std::chrono::steady_clock::now();
  const auto header = FbsHeaderView::parse(wire);
  double parse_ns = 0;
  if (tracing)
    parse_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - parse_start)
            .count());

  // Unparseable wires carry no sfl; they land on the source's sfl-0 domain
  // purely so the malformed rejection is counted somewhere deterministic.
  FlowDomain& dom =
      *domains_[recv_shard_of(source, header ? header->sfl : 0)];
  // From here to accept/reject: one critical section per datagram. In
  // particular the freshness check and the post-verification commit
  // execute atomically with respect to any other datagram of this flow, so
  // a duplicate racing in from another worker cannot slip between them.
  std::lock_guard<std::mutex> lock(dom.mu);
  if (tracing) dom.tracer.record(obs::Stage::kRecvParse, parse_ns);
  if (!header) return reject(dom, ReceiveError::kMalformed);
  return unprotect_item_locked(dom, ctx, source, *header, body_out);
}

// Burst chunk size: deliberately NOT tied to CryptoBatch::kLanes. The chunk
// bounds a family of stack arrays below (the FlowCryptoContext snapshots
// alone are over half a KiB each), so it must stay modest even when the
// bitslice engine widens; 64 datagrams of a few blocks each already fill
// the wide passes, since CBC decrypt splits datagrams across lanes.
constexpr std::size_t kBurstChunk = 64;

void FbsEndpoint::unprotect_burst_into(WorkContext& ctx,
                                       std::span<ReceiveBurstItem> items) {
  constexpr std::size_t kMax = kBurstChunk;
  for (std::size_t off = 0; off < items.size(); off += kMax)
    unprotect_burst_chunk(
        ctx, items.subspan(off, std::min(kMax, items.size() - off)));
}

void FbsEndpoint::unprotect_burst_chunk(WorkContext& ctx,
                                        std::span<ReceiveBurstItem> items) {
  constexpr std::size_t kMax = kBurstChunk;
  const std::size_t n = items.size();
  std::optional<FbsHeaderView> headers[kMax];
  std::size_t shard[kMax];
  bool grouped[kMax] = {};
  for (std::size_t i = 0; i < n; ++i) {
    headers[i] = FbsHeaderView::parse(items[i].wire);
    shard[i] = recv_shard_of(*items[i].source,
                             headers[i] ? headers[i]->sfl : 0);
  }

  for (std::size_t first = 0; first < n; ++first) {
    if (grouped[first]) continue;
    FlowDomain& dom = *domains_[shard[first]];
    // One critical section for the whole same-shard group (the pipeline
    // feeds whole bursts from one shard's ring, so this is normally one
    // lock per burst): freshness check ... batch decrypt ... MAC verify
    // ... replay commit all execute atomically per shard, exactly as the
    // per-item path does -- just amortized.
    std::lock_guard<std::mutex> lock(dom.mu);

    // Phase A, in submission order: header checks, freshness, flow-key
    // resolution. Items the batch engine cannot serve (plaintext bodies,
    // 3DES, stream modes, bad lengths, bitslice disabled) run the scalar
    // path right here -- their context pointer is consumed before any later
    // item's cache insert could evict it. Eligible items park only their
    // index: the pointer is re-resolved in phase A2 once all inserts are
    // done.
    std::size_t pend[kMax];
    std::size_t npend = 0;
    for (std::size_t j = first; j < n; ++j) {
      if (grouped[j] || shard[j] != shard[first]) continue;
      grouped[j] = true;
      ReceiveBurstItem& it = items[j];
      if (!headers[j]) {
        it.outcome = reject(dom, ReceiveError::kMalformed);
        continue;
      }
      const FbsHeaderView& h = *headers[j];
      const bool eligible =
          config_.bitslice_crypto && h.secret &&
          h.suite.cipher == crypto::CipherAlgorithm::kDesCbc &&
          !h.body.empty() &&
          h.body.size() % crypto::Des::kBlockSize == 0;
      if (!eligible) {
        it.outcome =
            unprotect_item_locked(dom, ctx, *it.source, h, *it.body_out);
        continue;
      }
      if (h.suite.mac == crypto::MacAlgorithm::kNull &&
          config_.suite.mac != crypto::MacAlgorithm::kNull) {
        it.outcome = reject(dom, ReceiveError::kMalformed);
        continue;
      }
      auto fresh_timer = dom.tracer.start(obs::Stage::kRecvFreshness);
      const auto verdict = dom.freshness.check(h.timestamp_minutes, h.mac);
      fresh_timer.finish();
      if (verdict == FreshnessChecker::Verdict::kStale) {
        it.outcome = reject(dom, ReceiveError::kStale);
        continue;
      }
      if (verdict == FreshnessChecker::Verdict::kReplay) {
        it.outcome = reject(dom, ReceiveError::kReplay);
        continue;
      }
      auto key_timer = dom.tracer.start(obs::Stage::kRecvKey);
      FlowCryptoContext* fctx =
          incoming_flow_context(dom, ctx, *it.source, h.sfl, h.suite);
      key_timer.finish();
      if (!fctx) {
        it.outcome = reject(dom, ReceiveError::kUnknownPeer);
        continue;
      }
      pend[npend++] = j;
    }

    // Phase A2: re-resolve each pending context with a peek -- no insert
    // can evict from here on, so these pointers stay valid through the
    // batch. An entry that a sibling flow's derive evicted mid-burst (set
    // collision) is derived again into a local context instead of
    // re-inserted -- a real derivation, counted and timed like any other.
    std::optional<FlowCryptoContext> local[kMax];
    crypto::CbcOpenJob jobs[kMax];
    struct Live {
      std::size_t item;
      FlowCryptoContext* fctx;
    };
    Live live[kMax];
    std::size_t njob = 0;
    for (std::size_t k = 0; k < npend; ++k) {
      const std::size_t j = pend[k];
      ReceiveBurstItem& it = items[j];
      const FbsHeaderView& h = *headers[j];
      cache_key_into(h.sfl, *it.source, self_, ctx.key);
      auto* fctx = const_cast<FlowCryptoContext*>(dom.rfkc.peek(ctx.key));
      if (fctx) {
        ensure_suite(*fctx, h.suite, suite_mac(h.suite.mac));
      } else {
        auto key_timer = dom.tracer.start(obs::Stage::kRecvKey);
        const std::optional<FlowKey> key =
            derive_incoming(dom, ctx, *it.source, h.sfl);
        if (!key) {
          it.outcome = reject(dom, ReceiveError::kUnknownPeer);
          continue;
        }
        local[j].emplace(make_flow_crypto_context(*key, h.suite,
                                                  suite_mac(h.suite.mac)));
        fctx = &*local[j];
      }
      if (!fctx->des || !fctx->bitslice) {
        it.outcome = reject(dom, ReceiveError::kMalformed);
        continue;
      }
      it.body_out->resize(h.body.size());
      jobs[njob] = crypto::CbcOpenJob{&*fctx->des, &*fctx->bitslice,
                                      confounder_iv(h.confounder), h.body,
                                      it.body_out->data()};
      live[njob] = Live{j, fctx};
      ++njob;
    }

    // Phase B: one cross-datagram bitsliced decrypt for the whole group,
    // mixed flow keys included (per-lane key schedules) -- when the cost
    // model prices it below the scalar core. Otherwise each datagram takes
    // the fused decrypt+MAC pass in phase C.
    std::size_t total_blocks = 0;
    bool mixed = false;
    for (std::size_t k = 0; k < njob; ++k) {
      total_blocks += jobs[k].ciphertext.size() / crypto::Des::kBlockSize;
      mixed |= jobs[k].schedule != jobs[0].schedule;
    }
    const bool wide =
        njob > 0 && crypto::CryptoBatch::open_goes_wide(total_blocks, mixed);
    if (wide) {
      auto batch_timer = dom.tracer.start(obs::Stage::kRecvBatchCrypto);
      open_batch(dom, ctx, {jobs, njob});
      batch_timer.finish();
    }

    // Phases C-D, in submission order: padding check and MAC over the
    // recovered plaintext (one fused pass when phase B did not decrypt),
    // constant-time compare, replay commit.
    for (std::size_t k = 0; k < njob; ++k) {
      const std::size_t j = live[k].item;
      ReceiveBurstItem& it = items[j];
      const FbsHeaderView& h = *headers[j];
      FlowCryptoContext* fctx = live[k].fctx;
      util::Bytes& body = *it.body_out;
      std::uint8_t prefix[kMacPrefixSize];
      mac_prefix_into(h.flags_byte(), h.suite_byte(), h.confounder,
                      h.timestamp_minutes, prefix);
      std::uint8_t mac_buf[kMaxMacSize];
      const std::size_t mac_n = fctx->mac->mac_size();
      bool ok;
      if (wide) {
        ok = crypto::detail::pkcs7_unpad_in_place(body);
        if (ok) {
          auto mac_timer = dom.tracer.start(obs::Stage::kRecvMac);
          fctx->mac->compute_into({{prefix, kMacPrefixSize}, body}, mac_buf);
        }
      } else {
        auto fused_timer = dom.tracer.start(obs::Stage::kRecvFused);
        ok = crypto::fused_open_into(*fctx->des, jobs[k].iv, *fctx->mac,
                                     {prefix, kMacPrefixSize}, h.body,
                                     mac_buf, body);
      }
      if (!ok) {
        it.outcome = reject(dom, ReceiveError::kDecryptFailed);
        continue;
      }
      if (!util::ct_equal({mac_buf, mac_n}, h.mac)) {
        it.outcome = reject(dom, ReceiveError::kBadMac);
        continue;
      }
      // Every item of this group passed check() before any committed; the
      // non-counting probe catches the second copy of an intra-burst
      // duplicate before it can double-commit.
      if (dom.freshness.seen(h.timestamp_minutes, h.mac)) {
        it.outcome = reject(dom, ReceiveError::kReplay);
        continue;
      }
      dom.freshness.commit(h.timestamp_minutes, h.mac);
      ++dom.receive_stats.accepted;
      it.outcome = ReceivedInfo{h.sfl, h.secret, h.suite};
    }
  }
}

ReceiveIntoOutcome FbsEndpoint::unprotect_into(const Principal& source,
                                               util::BytesView wire,
                                               util::Bytes& body_out) {
  return unprotect_into(default_ctx_, source, wire, body_out);
}

ReceiveOutcome FbsEndpoint::unprotect(const Principal& source,
                                      util::BytesView wire) {
  util::Bytes body;
  const ReceiveIntoOutcome outcome = unprotect_into(source, wire, body);
  if (const auto* err = std::get_if<ReceiveError>(&outcome)) return *err;
  const auto& info = std::get<ReceivedInfo>(outcome);
  ReceivedDatagram out;
  out.datagram.source = source;
  out.datagram.destination = self_;
  out.datagram.body = std::move(body);
  out.sfl = info.sfl;
  out.was_secret = info.was_secret;
  out.suite = info.suite;
  return out;
}

void FbsEndpoint::rekey(const FlowAttributes& attrs) {
  FlowDomain& dom = *domains_[send_shard_of(attrs)];
  std::lock_guard<std::mutex> lock(dom.mu);
  if (config_.combined_fst_tfkc) {
    const std::size_t idx =
        cache_index(config_.cache_hash, attrs.encode(), dom.combined.size());
    CombinedFlowEntry& e = dom.combined[idx];
    if (e.valid && e.attrs == attrs) e.valid = false;
    return;
  }
  // Split mode: terminate the flow in the FAM; the next datagram maps to a
  // fresh sfl, whose key misses in the TFKC and is derived anew.
  dom.policy->expire_flow(attrs);
}

std::size_t FbsEndpoint::sweep() {
  const util::TimeUs now = clock_.now();
  std::size_t expired = 0;
  for (const auto& dom : domains_) {
    std::lock_guard<std::mutex> lock(dom->mu);
    expired += dom->policy->sweep(now);
  }
  return expired;
}

void FbsEndpoint::clear_soft_state() {
  for (const auto& dom : domains_) {
    std::lock_guard<std::mutex> lock(dom->mu);
    for (CombinedFlowEntry& e : dom->combined) e.valid = false;
    dom->tfkc.clear();
    dom->rfkc.clear();
    dom->policy->clear();
    // A restarted receiver has no memory of recently seen MACs; the strict
    // replay extension degrades to the paper's window-only check (its design
    // guarantee: losing the cache is never worse than not having it).
    dom->freshness.clear();
  }
}

const SendStats& FbsEndpoint::send_stats() const {
  agg_send_ = SendStats{};
  for (const auto& dom : domains_) {
    std::lock_guard<std::mutex> lock(dom->mu);
    accumulate(agg_send_, dom->send_stats);
  }
  return agg_send_;
}

const ReceiveStats& FbsEndpoint::receive_stats() const {
  agg_recv_ = ReceiveStats{};
  for (const auto& dom : domains_) {
    std::lock_guard<std::mutex> lock(dom->mu);
    accumulate(agg_recv_, dom->receive_stats);
  }
  return agg_recv_;
}

const CacheStats& FbsEndpoint::tfkc_stats() const {
  agg_tfkc_ = CacheStats{};
  for (const auto& dom : domains_) {
    std::lock_guard<std::mutex> lock(dom->mu);
    accumulate(agg_tfkc_, dom->tfkc.stats());
  }
  return agg_tfkc_;
}

const CacheStats& FbsEndpoint::rfkc_stats() const {
  agg_rfkc_ = CacheStats{};
  for (const auto& dom : domains_) {
    std::lock_guard<std::mutex> lock(dom->mu);
    accumulate(agg_rfkc_, dom->rfkc.stats());
  }
  return agg_rfkc_;
}

const FreshnessChecker::Stats& FbsEndpoint::freshness_stats() const {
  agg_freshness_ = FreshnessChecker::Stats{};
  for (const auto& dom : domains_) {
    std::lock_guard<std::mutex> lock(dom->mu);
    accumulate(agg_freshness_, dom->freshness.stats());
  }
  return agg_freshness_;
}

const FamStats& FbsEndpoint::fam_stats() const {
  agg_fam_ = FamStats{};
  for (const auto& dom : domains_) {
    std::lock_guard<std::mutex> lock(dom->mu);
    accumulate(agg_fam_, dom->policy->stats());
  }
  return agg_fam_;
}

const crypto::CryptoBatch::Stats& FbsEndpoint::batch_stats() const {
  agg_batch_ = crypto::CryptoBatch::Stats{};
  for (const auto& dom : domains_) {
    std::lock_guard<std::mutex> lock(dom->mu);
    agg_batch_ += dom->batch_stats;
  }
  return agg_batch_;
}

const MegaflowStats* FbsEndpoint::megaflow_stats() const {
  agg_mega_ = MegaflowStats{};
  bool any = false;
  for (const auto& dom : domains_) {
    std::lock_guard<std::mutex> lock(dom->mu);
    const MegaflowStats* m = dom->policy->mega_stats();
    if (!m) continue;
    any = true;
    agg_mega_.budget_evictions += m->budget_evictions;
    agg_mega_.wheel_cascades += m->wheel_cascades;
    agg_mega_.wheel_fires += m->wheel_fires;
    agg_mega_.sweep_touched += m->sweep_touched;
    agg_mega_.map_rehashes += m->map_rehashes;
    agg_mega_.slab_grows += m->slab_grows;
    agg_mega_.live_flows += m->live_flows;
    agg_mega_.peak_live_flows += m->peak_live_flows;
    if (m->map_load_factor > agg_mega_.map_load_factor)
      agg_mega_.map_load_factor = m->map_load_factor;
    agg_mega_.resident_bytes += m->resident_bytes;
  }
  return any ? &agg_mega_ : nullptr;
}

}  // namespace fbs::core
