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
/// it accepted). Written into a stack buffer on send, a ReceiveSlot on
/// receive.
constexpr std::size_t kMacPrefixSize = ReceiveSlot::kMacPrefixSize;

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

using SteadyClock = std::chrono::steady_clock;

double ns_since(SteadyClock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() -
                                                           t0)
          .count());
}

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
  domains_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    domains_.push_back(std::make_unique<FlowDomain>(config_, clock_,
                                                    sfl_alloc_,
                                                    rng.next_u64()));
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

bool FbsEndpoint::key_worn_out(std::uint64_t datagrams, std::uint64_t bytes,
                               util::TimeUs created, util::TimeUs now) const {
  return (config_.rekey_after_datagrams &&
          datagrams >= config_.rekey_after_datagrams) ||
         (config_.rekey_after_bytes && bytes >= config_.rekey_after_bytes) ||
         (config_.rekey_after_age && now - created >= config_.rekey_after_age);
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
      if (key_worn_out(e.datagrams, e.bytes, e.created, now)) {
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
        config_.suite, crypto::Mac(config_.suite.mac));
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
  const FlowStateEntry* entry = dom.policy->find(d.attrs);
  if (entry &&
      key_worn_out(entry->datagrams, entry->bytes, entry->created, now)) {
    ++dom.send_stats.lifetime_rekeys;
    dom.policy->expire_flow(d.attrs);
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
                   config_.suite, crypto::Mac(config_.suite.mac)));
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
  std::uint8_t mac_buf[crypto::kMaxMacSize];
  const std::size_t mac_n = fctx->mac->mac_size();

  util::BytesView body;
  if (header.secret &&
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
    ensure_suite(*cached, suite);
    return cached;
  }
  const std::optional<FlowKey> key = derive_incoming(dom, ctx, source, sfl);
  if (!key) return nullptr;
  return dom.rfkc.insert(
      ctx.key, make_flow_crypto_context(*key, suite, crypto::Mac(suite.mac)));
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

std::optional<ReceiveError> FbsEndpoint::admit(
    FlowDomain& dom, const std::optional<FbsHeaderView>& header) {
  if (!header) return ReceiveError::kMalformed;
  // The header's algorithm field is attacker-controlled, and the NOP suite's
  // "MAC" is a public constant: honoring a wire-chosen kNull suite would let
  // anyone forge datagrams carrying sixteen zero bytes as the tag. Only an
  // endpoint explicitly configured for NOP measurement runs may accept it.
  if (header->suite.mac == crypto::MacAlgorithm::kNull &&
      config_.suite.mac != crypto::MacAlgorithm::kNull)
    return ReceiveError::kMalformed;
  // A secret body under a suite with no cipher cannot be opened.
  if (header->secret && !crypto::cipher_mode(header->suite.cipher))
    return ReceiveError::kMalformed;
  // (R3-4) freshness before any cryptography: stale datagrams cost nothing.
  // The check is read-only; the seen-MAC cache is only committed to after
  // the MAC verifies, so a forged body cannot poison it (see replay.hpp).
  auto fresh_timer = dom.tracer.start(obs::Stage::kRecvFreshness);
  switch (dom.freshness.check(header->timestamp_minutes, header->mac)) {
    case FreshnessChecker::Verdict::kFresh: return std::nullopt;
    case FreshnessChecker::Verdict::kStale: return ReceiveError::kStale;
    case FreshnessChecker::Verdict::kReplay: return ReceiveError::kReplay;
  }
  return std::nullopt;
}

FlowCryptoContext* FbsEndpoint::settled_context(FlowDomain& dom,
                                                WorkContext& ctx,
                                                const Principal& source,
                                                const FbsHeaderView& h) {
  cache_key_into(h.sfl, source, self_, ctx.key);
  auto* cached = const_cast<FlowCryptoContext*>(dom.rfkc.peek(ctx.key));
  if (cached && cached->suite == h.suite) return cached;
  if (cached)  // a later datagram of this flow re-suited the shared entry
    return &ctx.rederived.emplace_back(make_flow_crypto_context(
        cached->key, h.suite, crypto::Mac(h.suite.mac)));
  // Evicted by a later datagram's insert: derive again, into burst-local
  // storage -- a real derivation, counted and timed like any other.
  auto key_timer = dom.tracer.start(obs::Stage::kRecvKey);
  const std::optional<FlowKey> key = derive_incoming(dom, ctx, source, h.sfl);
  if (!key) return nullptr;
  return &ctx.rederived.emplace_back(
      make_flow_crypto_context(*key, h.suite, crypto::Mac(h.suite.mac)));
}

void FbsEndpoint::open_one(FlowDomain& dom, WorkContext& ctx,
                           ReceiveSlot& sl, std::size_t& nopen,
                           util::Bytes& body) {
  const FbsHeaderView& h = *sl.header;
  const FlowCryptoContext& f = *sl.fctx;
  sl.job = ReceiveSlot::kNoJob;
  sl.opened = false;
  mac_prefix_into(h.flags_byte(), h.suite_byte(), h.confounder,
                  h.timestamp_minutes, sl.prefix);
  const util::BytesView prefix{sl.prefix, kMacPrefixSize};
  // (R10-11 first for secret datagrams -- see the header-comment deviation
  // note): recover the plaintext the MAC was computed over.
  if (h.secret) {
    const std::uint64_t iv = confounder_iv(h.confounder);
    if (h.suite.cipher == crypto::CipherAlgorithm::kDesCbc) {
      if (config_.bitslice_crypto) {
        ctx.opens[nopen] = crypto::FusedOpenJob{
            &*f.des, &*f.bitslice, iv, &*f.mac, prefix, h.body, sl.mac, &body};
        sl.job = nopen++;
      } else {
        auto fused_timer = dom.tracer.start(obs::Stage::kRecvFused);
        sl.opened = crypto::fused_open_into(*f.des, iv, *f.mac, prefix,
                                            h.body, sl.mac, body);
      }
      return;
    }
    auto cipher_timer = dom.tracer.start(obs::Stage::kRecvCipher);
    const auto mode = *crypto::cipher_mode(h.suite.cipher);
    const bool ok = f.des3
                        ? crypto::decrypt_into(*f.des3, mode, iv, h.body, body)
                        : crypto::decrypt_into(*f.des, mode, iv, h.body, body);
    if (!ok) return;
  } else {
    body.assign(h.body.begin(), h.body.end());
  }
  auto mac_timer = dom.tracer.start(obs::Stage::kRecvMac);
  f.mac->compute_into({prefix, body}, sl.mac);
  sl.opened = true;
}

void FbsEndpoint::receive_chunk(WorkContext& ctx,
                                std::span<ReceiveBurstItem> items) {
  const bool tracing = config_.trace_stages;
  const std::size_t n = items.size();
  // Parse before taking any lock: it reads only the wire, and the sfl it
  // yields picks the owning domain. Unparseable wires carry no sfl; they
  // land on the source's sfl-0 domain purely so the malformed rejection is
  // counted somewhere deterministic.
  for (std::size_t i = 0; i < n; ++i) {
    ReceiveSlot& sl = ctx.recv[i];
    const auto t0 = tracing ? SteadyClock::now() : SteadyClock::time_point{};
    sl.header = FbsHeaderView::parse(items[i].wire);
    if (tracing) sl.parse_ns = ns_since(t0);
    sl.shard = recv_shard_of(*items[i].source, sl.header ? sl.header->sfl : 0);
    sl.grouped = false;
  }

  for (std::size_t first = 0; first < n; ++first) {
    if (ctx.recv[first].grouped) continue;
    const std::size_t s = ctx.recv[first].shard;
    FlowDomain& dom = *domains_[s];
    // One critical section for the whole same-shard group (the pipeline
    // feeds whole bursts from one shard's ring, and a single datagram is a
    // group of one): freshness check ... open ... MAC verify ... replay
    // commit all execute atomically with respect to any other datagram of
    // these flows, so a duplicate racing in from another worker cannot slip
    // between check and commit.
    std::lock_guard<std::mutex> lock(dom.mu);
    ctx.rederived.clear();

    // Admission and key resolution, in submission order. (R5-6) recovers
    // each flow's crypto context from the sfl: an RFKC hit returns the
    // ready DES schedule and keyed MAC state.
    for (std::size_t j = first; j < n; ++j) {
      ReceiveSlot& sl = ctx.recv[j];
      if (sl.shard != s) continue;
      sl.grouped = true;
      sl.fctx = nullptr;
      if (tracing) dom.tracer.record(obs::Stage::kRecvParse, sl.parse_ns);
      if (const auto e = admit(dom, sl.header)) {
        items[j].outcome = reject(dom, *e);
        continue;
      }
      const FbsHeaderView& h = *sl.header;
      auto key_timer = dom.tracer.start(obs::Stage::kRecvKey);
      sl.fctx = incoming_flow_context(dom, ctx, *items[j].source, h.sfl,
                                      h.suite);
      key_timer.finish();
      if (!sl.fctx) {
        items[j].outcome = reject(dom, ReceiveError::kUnknownPeer);
        continue;
      }
      sl.evictions = dom.rfkc.evictions();
    }

    // Open and MAC. No insert happens from here on, so every context is
    // settled first: one a later datagram's insert evicted, or a later
    // datagram of the same flow re-suited, is rebuilt burst-locally. Then
    // 3DES, stream/ECB and plaintext bodies are opened and MACed in place,
    // and DES-CBC bodies are queued for one fused_open_batch call, which
    // routes them wide or through the scalar fused pass.
    const std::uint64_t evictions = dom.rfkc.evictions();
    std::size_t nopen = 0;
    for (std::size_t j = first; j < n; ++j) {
      ReceiveSlot& sl = ctx.recv[j];
      if (sl.shard != s || !sl.fctx) continue;
      if (sl.evictions != evictions || sl.fctx->suite != sl.header->suite) {
        sl.fctx = settled_context(dom, ctx, *items[j].source, *sl.header);
        if (!sl.fctx) {
          items[j].outcome = reject(dom, ReceiveError::kUnknownPeer);
          continue;
        }
      }
      open_one(dom, ctx, sl, nopen, *items[j].body_out);
    }
    if (nopen != 0) {
      const auto t0 = tracing ? SteadyClock::now() : SteadyClock::time_point{};
      const crypto::CryptoBatch::Stats before = ctx.batch.stats();
      crypto::fused_open_batch(ctx.batch, {ctx.opens.data(), nopen});
      const crypto::CryptoBatch::Stats done = ctx.batch.stats() - before;
      dom.batch_stats += done;
      if (tracing)
        dom.tracer.record(done.passes != 0 ? obs::Stage::kRecvBatchCrypto
                                           : obs::Stage::kRecvFused,
                          ns_since(t0));
    }

    // Verify and commit, in submission order. (R7-9) the MAC covers flags |
    // suite | confounder | timestamp | plaintext body: every header bit is
    // either authenticated here or validated by parse (version, reserved
    // flags) or by key selection (sfl). Only a verified datagram enters the
    // strict-replay seen-set; commit refuses the second copy of a wire
    // duplicated inside this burst, since both passed the check above.
    for (std::size_t j = first; j < n; ++j) {
      ReceiveSlot& sl = ctx.recv[j];
      if (sl.shard != s || !sl.fctx) continue;
      const FbsHeaderView& h = *sl.header;
      const bool opened =
          sl.job == ReceiveSlot::kNoJob ? sl.opened : ctx.opens[sl.job].ok;
      if (!opened)
        items[j].outcome = reject(dom, ReceiveError::kDecryptFailed);
      else if (!util::ct_equal({sl.mac, sl.fctx->mac->mac_size()}, h.mac))
        items[j].outcome = reject(dom, ReceiveError::kBadMac);
      else if (!dom.freshness.commit(h.timestamp_minutes, h.mac))
        items[j].outcome = reject(dom, ReceiveError::kReplay);
      else {
        ++dom.receive_stats.accepted;
        items[j].outcome = ReceivedInfo{h.sfl, h.secret, h.suite};
      }
    }
  }
}

void FbsEndpoint::unprotect_burst_into(WorkContext& ctx,
                                       std::span<ReceiveBurstItem> items) {
  for (std::size_t off = 0; off < items.size(); off += WorkContext::kBurstChunk)
    receive_chunk(ctx, items.subspan(off, std::min(WorkContext::kBurstChunk,
                                                   items.size() - off)));
}

ReceiveIntoOutcome FbsEndpoint::unprotect_into(WorkContext& ctx,
                                               const Principal& source,
                                               util::BytesView wire,
                                               util::Bytes& body_out) {
  ReceiveBurstItem item{&source, wire, &body_out};
  unprotect_burst_into(ctx, {&item, 1});
  return item.outcome;
}

ReceiveIntoOutcome FbsEndpoint::unprotect_into(const Principal& source,
                                               util::BytesView wire,
                                               util::Bytes& body_out) {
  return unprotect_into(default_ctx_, source, wire, body_out);
}

ReceiveOutcome FbsEndpoint::unprotect(const Principal& source,
                                      util::BytesView wire) {
  util::Bytes body;
  const ReceiveIntoOutcome r = unprotect_into(source, wire, body);
  if (const auto* err = std::get_if<ReceiveError>(&r)) return *err;
  const auto& info = std::get<ReceivedInfo>(r);
  return ReceivedDatagram{{source, self_, {}, std::move(body)},
                          info.sfl, info.was_secret, info.suite};
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
