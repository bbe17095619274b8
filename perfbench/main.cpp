// The repository benchmark: drives the public FBS stack from outside --
// UdpService -> IpStack -> FbsIpMapping/FbsEndpoint -> UdpTransport over
// kernel loopback, in one process -- on one of three workloads, checks every
// delivered byte, and prints every metric by name with its unit. The last
// line of standard output is one JSON object (see README.md).
//
//   fbs_perfbench --workload <bulk_1408|rpc_64|server_churn> --seed <n>
//                 --seconds <s> --trace <0|1>
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) spend half their time untraced and half in a world whose
// transports are wrapped in TracedTransport and whose endpoints record
// stage latencies, and report the per-layer metrics and the ledger.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "cert/certificate.hpp"
#include "cert/directory.hpp"
#include "crypto/algorithms.hpp"
#include "crypto/dh.hpp"
#include "crypto/fused.hpp"
#include "fbs/ip_map.hpp"
#include "net/udp.hpp"
#include "net/udp_transport.hpp"
#include "obs/stages.hpp"
#include "stats.hpp"
#include "trace/internet.hpp"
#include "traced_transport.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

using namespace fbs;
namespace pb = perfbench;

namespace {

enum class Kind { kBulk, kRpc, kChurn };

struct Options {
  Kind kind = Kind::kBulk;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Workload shape. Every workload is a closed loop: bulk_1408 and rpc_64 start
// an exchange only once the previous one was delivered; server_churn keeps a
// fixed number of records in flight.
constexpr std::size_t kBulkPayload = 1408;  // the Figure 8 size
constexpr std::size_t kBulkWindow = 8;      // datagrams per exchange
constexpr std::size_t kRpcPayload = 64;
constexpr std::size_t kChurnClients = 16;   // principals on one socket
// Records in flight. Deep enough that the driving thread rarely waits on the
// pipeline workers: on a virtual machine a worker whose CPU went idle wakes
// only when the host runs that CPU again, which can take milliseconds when
// the host is busy (on a 4-vCPU KVM guest the driving thread spent 19% of
// its time waiting on the workers at 64 in flight, 2% at 256).
constexpr std::size_t kChurnWindow = 256;
constexpr std::size_t kChurnBurst = 32;     // sends between socket polls
constexpr std::size_t kChurnWorkers = 2;    // pipeline_workers on the server
constexpr int kWarmupExchanges = 8;
constexpr int kSetupRepeats = 5;            // setup_s is their median
constexpr int kSlices = 10;  // end-to-end metrics are medians over slices
constexpr double kSettleSeconds = 2.0;  // unmeasured, before every phase
constexpr double kStallTimeoutS = 2.0;  // no delivery for this long fails
// Key material comes from a fixed world seed, so set-up does the same work
// on every workload seed; --seed drives only payload bytes and the trace.
constexpr std::uint64_t kWorldSeed = 1997;

// ---------------------------------------------------------------------------
// Payloads: a 16-byte stamp (sequence number, length, kind) followed by a
// slice of a seed-derived pad chosen by the sequence number, so every
// delivered body can be checked byte for byte at the handler.

enum PayloadKind : std::uint32_t {
  kBulkData = 1,
  kRpcRequest = 2,
  kRpcReply = 3,
  kChurnData = 4
};
constexpr std::size_t kStampBytes = 16;
constexpr std::size_t kPadBytes = 1 << 16;
constexpr std::size_t kMaxPayload = 1500;

struct Stamp {
  std::uint64_t seq = 0;
  std::uint32_t length = 0;
  std::uint32_t kind = 0;
};

class Payloads {
 public:
  explicit Payloads(std::uint64_t seed)
      : pad_(util::SplitMix64(seed).next_bytes(kPadBytes)) {}

  void fill(const Stamp& stamp, util::Bytes& out) const {
    out.resize(stamp.length);
    std::memcpy(out.data(), &stamp.seq, 8);
    std::memcpy(out.data() + 8, &stamp.length, 4);
    std::memcpy(out.data() + 12, &stamp.kind, 4);
    std::memcpy(out.data() + kStampBytes, pad_.data() + offset(stamp.seq),
                stamp.length - kStampBytes);
  }

  static std::optional<Stamp> read(util::BytesView body) {
    if (body.size() < kStampBytes) return std::nullopt;
    Stamp s;
    std::memcpy(&s.seq, body.data(), 8);
    std::memcpy(&s.length, body.data() + 8, 4);
    std::memcpy(&s.kind, body.data() + 12, 4);
    return s;
  }

  /// True when `body` is exactly the payload `expected` describes.
  bool check(util::BytesView body, const Stamp& expected) const {
    const auto got = read(body);
    return got && got->seq == expected.seq &&
           got->length == expected.length && got->kind == expected.kind &&
           body.size() == expected.length &&
           std::memcmp(body.data() + kStampBytes,
                       pad_.data() + offset(expected.seq),
                       expected.length - kStampBytes) == 0;
  }

  util::BytesView pad() const { return pad_; }

 private:
  static std::size_t offset(std::uint64_t seq) {
    return static_cast<std::size_t>((seq * 2654435761u) %
                                    (kPadBytes - kMaxPayload));
  }
  util::Bytes pad_;
};

/// server_churn's trace: a day of internet traffic (far more than a run
/// replays) from 4096 Zipf-ranked clients to 64 Zipf-ranked servers.
trace::InternetWorkloadConfig churn_trace(std::uint64_t seed) {
  trace::InternetWorkloadConfig tc;
  tc.seed = seed;
  tc.duration = util::minutes(60 * 24);
  tc.clients = 4096;
  tc.servers = 64;
  return tc;
}

// ---------------------------------------------------------------------------
// The world: one or two sockets, the principals on them, and their keys.

struct Host {
  net::Ipv4Address address;
  std::unique_ptr<core::MasterKeyDaemon> mkd;
  std::unique_ptr<core::KeyManager> keys;
  std::unique_ptr<net::IpStack> stack;
  std::unique_ptr<core::FbsIpMapping> fbs;
  std::unique_ptr<net::UdpService> udp;
};

struct Socket {
  std::unique_ptr<net::UdpTransport> udp;
  std::unique_ptr<pb::TracedTransport> traced;  // traced worlds only
  net::Transport& transport() {
    return traced ? static_cast<net::Transport&>(*traced) : *udp;
  }
};

struct SetupTimes {
  double total_s = 0;
  double ca_s = 0;
  double dh_keygen_s = 0;
  double first_contact_s = 0;
};

double since_s(std::int64_t t0_ns) {
  return static_cast<double>(pb::now_ns() - t0_ns) * 1e-9;
}

/// Per-exchange bookkeeping of what is owed to whom.
struct Pending {
  Stamp stamp;
  std::int64_t sent_ns = 0;
  bool live = false;  // sent and not yet delivered
};

/// Outcome counts and timing samples of one measured phase.
struct Tally {
  std::uint64_t attempted = 0;   // datagrams handed to UdpService::send
  std::uint64_t send_refused = 0;  // UdpService::send returned false
  std::uint64_t delivered = 0;   // bodies that checked out at a handler
  std::uint64_t mismatches = 0;  // wrong bytes, unknown or repeated seq
  std::uint64_t payload_bytes = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t timed_out = 0;   // stalls: nothing delivered for the timeout
  std::vector<double> rtt_us;    // per exchange: first send to completion
  std::vector<double> lat_us;    // per datagram: send call to handler
};

class World {
 public:
  World(const Options& opt, bool traced, const Payloads& payloads)
      : opt_(opt), payloads_(payloads), traced_(traced) {
    const std::int64_t t0 = pb::now_ns();
    util::SplitMix64 rng(kWorldSeed);
    if (opt.kind == Kind::kChurn) {
      // Trace time drives the endpoints' clock, so THRESHOLD expiry and the
      // freshness window follow the trace, not the replay speed.
      auto vc = std::make_unique<util::VirtualClock>(kVirtualEpoch);
      virtual_clock_ = vc.get();
      clock_ = std::move(vc);
    } else {
      clock_ = std::make_unique<util::SteadyClock>();
    }
    std::int64_t t = pb::now_ns();
    ca_ = std::make_unique<cert::CertificateAuthority>(512, rng);
    times_.ca_s = since_s(t);

    for (int i = 0; i < 2; ++i) {
      Socket s;
      s.udp = std::make_unique<net::UdpTransport>(*clock_,
                                                  net::UdpTransportConfig{});
      if (!s.udp->ok())
        throw std::runtime_error("transport: " + s.udp->error());
      if (traced) s.traced = std::make_unique<pb::TracedTransport>(*s.udp, ledger_);
      sockets_.push_back(std::move(s));
    }

    core::IpMappingConfig sync_cfg;
    sync_cfg.fbs.trace_stages = traced;
    if (opt.kind == Kind::kChurn) {
      for (std::size_t i = 0; i < kChurnClients; ++i)
        add_host(0, net::Ipv4Address{0x0A590001u + static_cast<std::uint32_t>(i)},
                 sync_cfg, rng);
      core::IpMappingConfig server_cfg = sync_cfg;
      server_cfg.pipeline_workers = kChurnWorkers;
      server_cfg.fbs.shards = kChurnWorkers;
      add_host(1, net::Ipv4Address{0x0A590101u}, server_cfg, rng);
    } else {
      add_host(0, net::Ipv4Address{0x0A580001u}, sync_cfg, rng);
      add_host(1, net::Ipv4Address{0x0A580002u}, sync_cfg, rng);
    }
    sockets_[0].udp->add_peer(server().address, "127.0.0.1",
                              sockets_[1].udp->local_port());
    for (std::size_t i = 0; i + 1 < hosts_.size(); ++i)
      sockets_[1].udp->add_peer(hosts_[i].address, "127.0.0.1",
                                sockets_[0].udp->local_port());

    // First master-key contact of every principal pair: a DH shared secret
    // per side. Every pair fits in the 64-entry MKC, so no later datagram
    // pays for it.
    t = pb::now_ns();
    for (std::size_t i = 0; i + 1 < hosts_.size(); ++i) {
      const auto client = core::Principal::from_ipv4(hosts_[i].address);
      const auto srv = core::Principal::from_ipv4(server().address);
      if (!hosts_[i].keys->master_key(srv) ||
          !server().keys->master_key(client))
        throw std::runtime_error("first-contact master key failed");
    }
    times_.first_contact_s = since_s(t);
    bind_handlers();
    if (opt.kind == Kind::kChurn) {
      trace_ = std::make_unique<trace::InternetTraceGenerator>(
          churn_trace(opt.seed));
      payload_budget_ = 1500 - 20 - 8 - server().fbs->header_overhead();
    }

    warm_start_ns_ = pb::now_ns();
    Tally warm;
    tally_ = &warm;
    bool warmed = true;
    while (warmed && warm.exchanges < kWarmupExchanges) warmed = step();
    if (!warmed || !settle(warm) || warm.delivered != warm.attempted ||
        warm.mismatches != 0)
      throw std::runtime_error("warm-up did not deliver every datagram");
    tally_ = nullptr;
    times_.total_s = since_s(t0);
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const SetupTimes& setup_times() const { return times_; }

  /// Drive the workload for `seconds` of wall time; false once it stalled
  /// past the timeout. A sliding window may still owe datagrams after it
  /// returns: settle() collects them.
  bool run_for(double seconds, Tally& tally) {
    tally_ = &tally;
    const std::int64_t t0 = pb::now_ns();
    const auto limit = static_cast<std::int64_t>(seconds * 1e9);
    while (pb::now_ns() - t0 < limit) {
      if (!step()) return false;
    }
    return true;
  }

  /// Pump until every datagram sent was delivered; false on a stall.
  bool settle(Tally& tally) {
    tally_ = &tally;
    while (owed_ > 0) {
      if (!pump_checked()) return false;
    }
    return true;
  }

  // --- what a traced run reads back ---
  const pb::SpanLedger& ledger() const { return ledger_; }
  std::int64_t warm_start_ns() const { return warm_start_ns_; }
  std::uint64_t delivered_total() const { return delivered_total_; }
  std::vector<Host>& hosts() { return hosts_; }
  std::vector<Socket>& sockets() { return sockets_; }
  std::size_t in_flight_max() const { return in_flight_max_; }
  std::size_t payload_budget() const { return payload_budget_; }

 private:
  static constexpr util::TimeUs kVirtualEpoch = util::minutes(60);

  Host& server() { return hosts_.back(); }
  pb::SpanLedger* span_ledger() { return traced_ ? &ledger_ : nullptr; }

  void add_host(std::size_t socket, net::Ipv4Address address,
                const core::IpMappingConfig& cfg, util::RandomSource& rng) {
    Host h;
    h.address = address;
    const auto principal = core::Principal::from_ipv4(address);
    const auto& group = crypto::oakley_group1();
    std::int64_t t = pb::now_ns();
    const crypto::DhKeyPair dh = crypto::dh_generate(group, rng);
    times_.dh_keygen_s += since_s(t);
    directory_.publish(ca_->issue(
        principal.address, group.name,
        dh.public_value.to_bytes_be(group.element_size()), 0,
        clock_->now() + util::minutes(60 * 48)));
    h.mkd = std::make_unique<core::MasterKeyDaemon>(
        principal, dh.private_value, group, *ca_, directory_, *clock_);
    h.keys = std::make_unique<core::KeyManager>(*h.mkd);
    h.stack = std::make_unique<net::IpStack>(sockets_[socket].transport(),
                                             *clock_, address);
    h.fbs = std::make_unique<core::FbsIpMapping>(*h.stack, cfg, *h.keys,
                                                 *clock_, rng);
    h.udp = std::make_unique<net::UdpService>(*h.stack);
    hosts_.push_back(std::move(h));
  }

  void bind_handlers() {
    if (opt_.kind == Kind::kChurn) return;  // server ports bind on first use
    Host& a = hosts_[0];
    Host& b = hosts_[1];
    b.udp->bind(kPortB, [this](net::Ipv4Address src, std::uint16_t sport,
                               util::Bytes body) {
      pb::ScopedSpan span(span_ledger(), pb::Span::kHandler);
      const auto seq = deliver(body);
      if (seq && opt_.kind == Kind::kRpc) {
        reply_ = Pending{{*seq, kRpcPayload, kRpcReply}, pb::now_ns(), true};
        payloads_.fill(reply_.stamp, reply_buf_);
        send(hosts_[1], src, kPortB, sport, reply_buf_);
      }
    });
    a.udp->bind(kPortA, [this](net::Ipv4Address, std::uint16_t,
                               util::Bytes body) {
      pb::ScopedSpan span(span_ledger(), pb::Span::kHandler);
      if (!reply_.live || !payloads_.check(body, reply_.stamp)) {
        ++tally_->mismatches;
        return;
      }
      reply_.live = false;
      count_delivery(body.size(), reply_.stamp.seq);
    });
  }

  void bind_server_port(std::uint16_t port) {
    server().udp->bind(port, [this](net::Ipv4Address, std::uint16_t,
                                    util::Bytes body) {
      pb::ScopedSpan span(span_ledger(), pb::Span::kHandler);
      deliver(body);
    });
  }

  // Datagrams of an exchange, and datagrams that complete it (rpc_64: the
  // request and its reply). A server_churn record is an exchange of its
  // own: an exchange of many records takes as long as the latest of them,
  // so every stall of the host would show in it many times over.
  std::uint64_t exchange_size() const {
    return opt_.kind == Kind::kBulk ? kBulkWindow : 1;
  }
  std::uint32_t exchange_deliveries() const {
    return static_cast<std::uint32_t>(
        opt_.kind == Kind::kRpc ? 2 : exchange_size());
  }

  /// Stamp the next sequence number and make it owed.
  Pending& next_pending(std::uint32_t kind, std::size_t length) {
    const std::uint64_t seq = next_seq_++;
    const std::int64_t now = pb::now_ns();
    if (seq % exchange_size() == 0)
      exchanges_[(seq / exchange_size()) % kRing] = {now,
                                                     exchange_deliveries()};
    Pending& p = pending_[seq % kRing];
    p = {{seq, static_cast<std::uint32_t>(length), kind}, now, true};
    return p;
  }

  /// Check a body against what is owed under its sequence number; returns
  /// the sequence number when it checked out.
  std::optional<std::uint64_t> deliver(const util::Bytes& body) {
    const auto stamp = Payloads::read(body);
    Pending* p = stamp ? &pending_[stamp->seq % kRing] : nullptr;
    if (!p || !p->live || p->stamp.seq != stamp->seq ||
        !payloads_.check(body, p->stamp)) {
      ++tally_->mismatches;
      return std::nullopt;
    }
    p->live = false;
    tally_->lat_us.push_back(static_cast<double>(pb::now_ns() - p->sent_ns) *
                             1e-3);
    count_delivery(body.size(), stamp->seq);
    return stamp->seq;
  }

  void count_delivery(std::size_t bytes, std::uint64_t seq) {
    ++tally_->delivered;
    ++delivered_total_;
    --owed_;
    tally_->payload_bytes += bytes;
    Exchange& x = exchanges_[(seq / exchange_size()) % kRing];
    if (--x.remaining == 0) {
      ++tally_->exchanges;
      tally_->rtt_us.push_back(static_cast<double>(pb::now_ns() - x.start_ns) *
                               1e-3);
    }
  }

  void send(Host& from, net::Ipv4Address to, std::uint16_t sport,
            std::uint16_t dport, const util::Bytes& body) {
    ++tally_->attempted;
    if (owed_ == 0) last_progress_ns_ = pb::now_ns();
    pb::ScopedSpan span(span_ledger(), pb::Span::kUdpSend);
    if (from.udp->send(to, sport, dport, body))
      ++owed_;
    else
      ++tally_->send_refused;
  }

  /// Poll the receiving sockets once, then drain the server's pipeline (a
  /// no-op on a synchronous server). A pass that found nothing at all is
  /// waiting on the pipeline workers; it spins rather than yields, since a
  /// yield can hand the CPU to another process for a whole time slice.
  void pump() {
    // Only rpc_64 receives on the first socket (the replies).
    const std::size_t first = opt_.kind == Kind::kRpc ? 0 : 1;
    std::size_t handled = 0;
    for (std::size_t i = sockets_.size(); i-- > first;) {
      pb::ScopedSpan span(span_ledger(), pb::Span::kPoll);
      handled += sockets_[i].udp->poll(util::TimeUs{0});
    }
    if (const core::DatagramPipeline* p = server().fbs->pipeline())
      in_flight_max_ = std::max(in_flight_max_, p->in_flight());
    pb::SpanLedger* l = span_ledger();
    if (l) l->begin(pb::Span::kDrain, pb::now_ns());
    handled += server().fbs->drain_pipeline();
    if (l) {
      if (handled == 0) l->relabel(pb::Span::kWait);
      l->end(pb::Span::kDrain, pb::now_ns());
    }
  }

  /// pump() once; false when nothing was delivered for the timeout.
  bool pump_checked() {
    const std::uint64_t before = delivered_total_;
    pump();
    const std::int64_t now = pb::now_ns();
    if (delivered_total_ != before) {
      last_progress_ns_ = now;
    } else if (now - last_progress_ns_ >
               static_cast<std::int64_t>(kStallTimeoutS * 1e9)) {
      ++tally_->timed_out;
      return false;
    }
    return true;
  }

  /// One step of the closed loop. bulk_1408 and rpc_64 send an exchange
  /// and wait until it is delivered; server_churn tops up its sliding
  /// window of records in flight and pumps once.
  bool step() {
    switch (opt_.kind) {
      case Kind::kBulk:
        for (std::size_t i = 0; i < kBulkWindow; ++i) {
          const Pending& p = next_pending(kBulkData, kBulkPayload);
          payloads_.fill(p.stamp, buf_);
          send(hosts_[0], hosts_[1].address, kPortA, kPortB, buf_);
        }
        return settle(*tally_);
      case Kind::kRpc: {
        const Pending& p = next_pending(kRpcRequest, kRpcPayload);
        payloads_.fill(p.stamp, buf_);
        send(hosts_[0], hosts_[1].address, kPortA, kPortB, buf_);
        return settle(*tally_);
      }
      case Kind::kChurn:
        // At most one burst between polls keeps the server's socket buffer
        // far from full.
        for (std::size_t i = 0; i < kChurnBurst && owed_ < kChurnWindow &&
                                !pending_[next_seq_ % kRing].live;
             ++i)
          send_trace_record();
        return pump_checked();
    }
    return false;
  }

  /// Replay the next trace record as a UDP datagram. The trace's client
  /// picks one of the 16 principals; its (client, port) pair gets a UDP
  /// source port of its own on that principal and its server a port on the
  /// server principal, so distinct trace five-tuples stay distinct flows.
  void send_trace_record() {
    trace::PacketRecord rec;
    if (!trace_->next(rec)) throw std::runtime_error("trace exhausted");
    virtual_clock_->set(kVirtualEpoch + rec.time);
    const std::size_t principal = rec.tuple.source_address % kChurnClients;
    const std::uint64_t client_key =
        (static_cast<std::uint64_t>(rec.tuple.source_address) << 16) |
        rec.tuple.source_port;
    auto sp = source_ports_.find(client_key);
    if (sp == source_ports_.end()) {
      std::uint16_t& next = next_source_port_[principal];
      if (next == 0) next = kFirstPort;
      if (next == 0xFFFF) throw std::runtime_error("source ports exhausted");
      sp = source_ports_.emplace(client_key, next++).first;
    }
    auto dp = server_ports_.find(rec.tuple.destination_address);
    if (dp == server_ports_.end()) {
      const auto port =
          static_cast<std::uint16_t>(kFirstPort + server_ports_.size());
      dp = server_ports_.emplace(rec.tuple.destination_address, port).first;
      bind_server_port(port);
    }
    const Pending& p = next_pending(
        kChurnData,
        std::clamp<std::size_t>(rec.size, kStampBytes, payload_budget_));
    payloads_.fill(p.stamp, buf_);
    send(hosts_[principal], server().address, sp->second, dp->second, buf_);
  }

  static constexpr std::uint16_t kPortA = 4000;
  static constexpr std::uint16_t kPortB = 9000;
  static constexpr std::uint16_t kFirstPort = 1024;

  const Options& opt_;
  const Payloads& payloads_;
  const bool traced_;
  // Destruction runs bottom-up: hosts (pipeline threads join) before the
  // sockets their stacks are attached to, before the CA and the clock.
  std::unique_ptr<util::Clock> clock_;
  util::VirtualClock* virtual_clock_ = nullptr;
  pb::SpanLedger ledger_;
  std::unique_ptr<cert::CertificateAuthority> ca_;
  cert::DirectoryService directory_;
  std::vector<Socket> sockets_;
  std::vector<Host> hosts_;
  std::unique_ptr<trace::InternetTraceGenerator> trace_;
  std::unordered_map<std::uint64_t, std::uint16_t> source_ports_;
  std::unordered_map<std::uint32_t, std::uint16_t> server_ports_;
  std::array<std::uint16_t, kChurnClients> next_source_port_{};
  std::size_t payload_budget_ = 0;

  SetupTimes times_;
  std::int64_t warm_start_ns_ = 0;
  std::uint64_t delivered_total_ = 0;
  std::size_t in_flight_max_ = 0;

  // Sequence numbers in flight live in a ring; server_churn stops topping
  // up its window while the next slot is still owed.
  static constexpr std::size_t kRing = 1024;
  struct Exchange {
    std::int64_t start_ns = 0;
    std::uint32_t remaining = 0;
  };
  Tally* tally_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t owed_ = 0;  // sent, not yet delivered intact
  std::int64_t last_progress_ns_ = 0;
  std::array<Pending, kRing> pending_{};
  std::array<Exchange, kRing> exchanges_{};
  Pending reply_;  // rpc_64: the reply B owes A
  util::Bytes buf_;
  util::Bytes reply_buf_;
};

// ---------------------------------------------------------------------------
// Measurement helpers.

pb::CpuTimes process_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: the latter keeps the peak of the parent that forked us (the
/// Python launcher) across exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1;
  while (std::fgets(line, sizeof(line), f))
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Datagram-path stage time summed over every shard of an endpoint, in ns.
double stage_ns(core::FbsEndpoint& ep, obs::Stage stage) {
  double ns = 0;
  for (std::size_t i = 0; i < ep.shard_count(); ++i) {
    const core::FlowDomain& dom = ep.shard(i);
    std::lock_guard<std::mutex> lock(dom.mu);
    const auto& hist = dom.tracer.recorder(stage).histogram();
    ns += hist.mean() * static_cast<double>(hist.total());
  }
  return ns;
}

/// Rates and percentiles of one slice of a measured phase.
struct Slice {
  double seconds = 0;
  double pps = 0, goodput_mbps = 0, tps = 0, cpu_us_per_pkt = 0;
  std::optional<pb::TimingSummary> rtt, lat;
};

struct Measured {
  Tally tally;  // counts of the whole phase; samples of the last slice only
  double elapsed_s = 0;         // the slices' wall time
  std::uint64_t delivered = 0;  // datagrams delivered within the slices
  std::vector<Slice> slices;
};

/// Run the workload for `seconds`, split into `slices` equal slices. Each
/// slice's rates and percentiles are computed when it ends and its samples
/// dropped, so memory does not grow with the run and every end-to-end
/// metric can be the median over slices: a burst of interference from
/// outside the process moves one slice, not the result.
Measured measure(World& world, double seconds, int slices) {
  Measured m;
  // Room for any slice's samples up front: a reallocation mid-run would make
  // peak_rss_mb depend on the throughput.
  m.tally.rtt_us.reserve(1 << 20);
  m.tally.lat_us.reserve(1 << 20);
  // Run unmeasured first: a fresh world reads slow for about a second
  // while the scheduler spreads its threads and its caches fill.
  if (!world.run_for(kSettleSeconds, m.tally)) return m;
  std::int64_t t0 = pb::now_ns();
  const std::int64_t start = t0;
  pb::CpuTimes cpu0 = process_cpu();
  const Tally& t = m.tally;
  const std::uint64_t delivered0 = t.delivered;
  std::uint64_t delivered = t.delivered;
  std::uint64_t bytes = t.payload_bytes;
  std::uint64_t exchanges = t.exchanges;
  for (int i = 0; i < slices; ++i) {
    m.tally.rtt_us.clear();
    m.tally.lat_us.clear();
    if (!world.run_for(seconds / slices, m.tally)) break;
    const std::int64_t t1 = pb::now_ns();
    const pb::CpuTimes cpu1 = process_cpu();
    Slice s;
    s.seconds = static_cast<double>(t1 - t0) * 1e-9;
    s.pps = static_cast<double>(t.delivered - delivered) / s.seconds;
    s.goodput_mbps =
        static_cast<double>(t.payload_bytes - bytes) * 8e-6 / s.seconds;
    s.tps = static_cast<double>(t.exchanges - exchanges) / s.seconds;
    s.cpu_us_per_pkt =
        pb::cpu_us_per_datagram(cpu0, cpu1, t.delivered - delivered);
    s.rtt = pb::summarize(t.rtt_us);
    s.lat = pb::summarize(t.lat_us);
    m.slices.push_back(s);
    t0 = t1;
    cpu0 = cpu1;
    delivered = t.delivered;
    bytes = t.payload_bytes;
    exchanges = t.exchanges;
  }
  m.elapsed_s = static_cast<double>(t0 - start) * 1e-9;
  m.delivered = delivered - delivered0;
  world.settle(m.tally);
  return m;
}

void print_slices(const Measured& m) {
  const auto timing = [](const char* name,
                         const std::optional<pb::TimingSummary>& t) {
    if (!t) {
      std::printf(" %s: too few samples", name);
      return;
    }
    std::printf(" %s n=%zu p50=%.2f wmedian=%.2f", name, t->count, t->p50,
                t->wmedian);
    if (t->p99) std::printf(" p99=%.2f", *t->p99);
    std::printf(" p%g=%.2f us", t->top_percentile, t->top_value);
  };
  for (std::size_t i = 0; i < m.slices.size(); ++i) {
    const Slice& s = m.slices[i];
    std::printf("slice %2zu: %.3f s pps=%.0f tps=%.0f cpu=%.3f us;", i + 1,
                s.seconds, s.pps, s.tps, s.cpu_us_per_pkt);
    timing("rtt", s.rtt);
    timing("; lat", s.lat);
    std::printf("\n");
  }
}

/// Median over slices of one figure.
double median_over(const Measured& m, double (*get)(const Slice&)) {
  std::vector<double> v;
  for (const Slice& s : m.slices) v.push_back(get(s));
  return pb::median(v);
}

/// Median over slices of a percentile, counting only slices with enough
/// samples for it; nullopt unless at least half of the slices have.
std::optional<double> median_over(
    const Measured& m, std::optional<pb::TimingSummary> Slice::*timing,
    std::optional<double> (*get)(const pb::TimingSummary&)) {
  std::vector<double> v;
  for (const Slice& s : m.slices) {
    const auto& t = s.*timing;
    if (const auto x = t ? get(*t) : std::nullopt) v.push_back(*x);
  }
  if (v.empty() || 2 * v.size() < m.slices.size()) return std::nullopt;
  return pb::median(v);
}

std::optional<double> p50_of(const pb::TimingSummary& t) { return t.p50; }
std::optional<double> wmedian_of(const pb::TimingSummary& t) {
  return t.wmedian;
}
std::optional<double> p99_of(const pb::TimingSummary& t) { return t.p99; }

double required(std::optional<double> v, const char* what) {
  if (!v) throw std::runtime_error(std::string("too few samples for ") + what);
  return *v;
}

/// Crypto calibration: public fused DES-CBC + keyed-MD5 seal and open over
/// the workload's own FBS body sizes (UDP header included), outside any
/// socket. Explains crypto-bound throughput differences across hosts.
std::pair<double, double> calibrate_crypto(const std::vector<std::size_t>& sizes,
                                           const Payloads& payloads) {
  const crypto::AlgorithmSuite suite = core::FbsConfig{}.suite;
  const auto mac = crypto::make_mac(suite.mac);
  core::FlowCryptoContext fctx = core::make_flow_crypto_context(
      util::Bytes(payloads.pad().begin(), payloads.pad().begin() + 16), suite,
      *mac);
  const std::uint8_t prefix[12] = {};
  std::uint8_t seal_mac[16];
  std::uint8_t open_mac[16];
  util::Bytes ct;
  util::Bytes pt;
  double seal_ns = 0;
  double open_ns = 0;
  std::uint64_t n = 0;
  const std::int64_t stop = pb::now_ns() + 200'000'000;  // 0.2 s
  while (pb::now_ns() < stop) {
    for (std::size_t size : sizes) {
      const util::BytesView body = payloads.pad().subspan(n % 1024, size);
      std::int64_t t = pb::now_ns();
      crypto::fused_seal_into(*fctx.des, n, *fctx.mac, {prefix, 12}, body,
                              seal_mac, ct);
      seal_ns += static_cast<double>(pb::now_ns() - t);
      t = pb::now_ns();
      const bool ok = crypto::fused_open_into(*fctx.des, n, *fctx.mac,
                                              {prefix, 12}, ct, open_mac, pt);
      open_ns += static_cast<double>(pb::now_ns() - t);
      if (!ok || pt.size() != body.size() ||
          !std::equal(pt.begin(), pt.end(), body.begin()) ||
          std::memcmp(seal_mac, open_mac, fctx.mac->mac_size()) != 0)
        throw std::runtime_error("crypto calibration round trip failed");
      ++n;
    }
  }
  return {seal_ns * 1e-3 / static_cast<double>(n),
          open_ns * 1e-3 / static_cast<double>(n)};
}

/// FBS body sizes (UDP header + payload) the workload sends.
std::vector<std::size_t> body_sizes(const Options& opt, std::size_t budget) {
  constexpr std::size_t kUdpHeader = 8;
  if (opt.kind == Kind::kBulk) return {kUdpHeader + kBulkPayload};
  if (opt.kind == Kind::kRpc) return {kUdpHeader + kRpcPayload};
  trace::InternetTraceGenerator gen(churn_trace(opt.seed));
  std::vector<std::size_t> sizes;
  trace::PacketRecord rec;
  while (sizes.size() < 1024 && gen.next(rec))
    sizes.push_back(kUdpHeader +
                    std::clamp<std::size_t>(rec.size, kStampBytes, budget));
  return sizes;
}

bool parse_args(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
      if (val == "bulk_1408") opt.kind = Kind::kBulk;
      else if (val == "rpc_64") opt.kind = Kind::kRpc;
      else if (val == "server_churn") opt.kind = Kind::kChurn;
      else return false;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && opt.seconds > 0;
}

void print_metrics(const std::vector<Metric>& metrics,
                   const char* note = "") {
  for (const auto& m : metrics)
    std::printf("metric %-36s %.6g %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), note);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

/// Failure accounting of a phase: engine rejects, transport drops and
/// payload mismatches all end up as datagrams not delivered intact.
std::uint64_t report_failures(World& world, const Tally& t) {
  std::uint64_t rejects = 0;
  std::uint64_t drops = 0;
  for (auto& h : world.hosts())
    for (const auto& r : h.fbs->counters().in_rejected) rejects += r;
  for (auto& s : world.sockets()) drops += s.udp->totals().dropped;
  const std::uint64_t failed =
      t.attempted > t.delivered ? t.attempted - t.delivered : 0;
  std::printf("outcome: attempted=%llu delivered_intact=%llu failed=%llu "
              "fail_ratio=%.6g (engine_rejects=%llu transport_drops=%llu "
              "mismatches=%llu send_refused=%llu stalls=%llu)\n",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.delivered),
              static_cast<unsigned long long>(failed),
              t.attempted ? static_cast<double>(failed) /
                                static_cast<double>(t.attempted)
                          : 0.0,
              static_cast<unsigned long long>(rejects),
              static_cast<unsigned long long>(drops),
              static_cast<unsigned long long>(t.mismatches),
              static_cast<unsigned long long>(t.send_refused),
              static_cast<unsigned long long>(t.timed_out));
  return failed;
}

bool phase_ok(const Tally& t) {
  return t.attempted > 0 && t.delivered == t.attempted &&
         t.mismatches == 0 && t.timed_out == 0;
}

/// Per-layer metrics of the traced world, plus the ledger printout.
std::vector<Metric> per_layer(const Options& opt, World& world,
                              const Measured& untraced,
                              const Measured& traced,
                              const std::vector<SetupTimes>& setups,
                              const Payloads& payloads) {
  using obs::Stage;
  const pb::SpanLedger& L = world.ledger();
  const double wall_ns =
      static_cast<double>(pb::now_ns() - world.warm_start_ns());
  const double n = static_cast<double>(world.delivered_total());
  const auto per_dgram_us = [&](double ns) { return ns * 1e-3 / n; };

  // Stage totals: send stages run on the main thread for every host;
  // receive stages run there only for hosts without a pipeline.
  std::array<double, obs::kStageCount> main_ns{};
  std::array<double, obs::kStageCount> all_ns{};
  std::uint64_t send_dgrams = 0, send_derived = 0, recv_derived = 0;
  std::uint64_t mkc_hits = 0, mkc_misses = 0, upcalls = 0;
  std::uint64_t fam_dgrams = 0, fam_hits = 0, fam_evictions = 0;
  double rfkc_hits = 0, rfkc_misses = 0;
  for (auto& h : world.hosts()) {
    core::FbsEndpoint& ep = h.fbs->endpoint();
    for (std::size_t s = 0; s < obs::kStageCount; ++s) {
      const double ns = stage_ns(ep, static_cast<Stage>(s));
      all_ns[s] += ns;
      const bool recv_stage = s >= static_cast<std::size_t>(Stage::kRecvParse);
      if (!recv_stage || !h.fbs->pipeline()) main_ns[s] += ns;
    }
    send_dgrams += ep.send_stats().datagrams;
    send_derived += ep.send_stats().flow_keys_derived;
    recv_derived += ep.receive_stats().flow_keys_derived;
    const auto& rf = ep.rfkc_stats();
    rfkc_hits += static_cast<double>(rf.hits);
    rfkc_misses += static_cast<double>(rf.misses());
    const auto& fam = ep.fam_stats();
    fam_dgrams += fam.datagrams;
    fam_hits += fam.mapper_hits;
    fam_evictions += fam.hash_evictions;
    const auto& mkc = h.keys->mkc_stats();
    mkc_hits += mkc.hits;
    mkc_misses += mkc.misses();
    upcalls += h.keys->upcalls();
  }
  const auto st = [](Stage s) { return static_cast<std::size_t>(s); };
  const auto sum = [&](const std::array<double, obs::kStageCount>& a,
                       std::initializer_list<Stage> stages) {
    double v = 0;
    for (Stage s : stages) v += a[st(s)];
    return v;
  };
  const std::initializer_list<Stage> send_stages = {
      Stage::kSendClassify, Stage::kSendMac, Stage::kSendCipher,
      Stage::kSendFused, Stage::kSendWire};  // KeyDerive nests in Classify
  const std::initializer_list<Stage> recv_stages = {
      Stage::kRecvParse, Stage::kRecvFreshness, Stage::kRecvKey,
      Stage::kRecvCipher, Stage::kRecvMac, Stage::kRecvFused,
      Stage::kRecvBatchCrypto};

  // The ledger: every main-thread self time, none overlapping.
  const double send_fbs = sum(main_ns, send_stages);
  const double recv_fbs_main = sum(main_ns, recv_stages);
  const double stack_send = L.self_ns(pb::Span::kUdpSend) - send_fbs;
  const double stack_recv = L.self_ns(pb::Span::kSink) - recv_fbs_main;
  const double classify_self =
      all_ns[st(Stage::kSendClassify)] - all_ns[st(Stage::kSendKeyDerive)];
  const double send_crypto =
      sum(main_ns, {Stage::kSendFused, Stage::kSendMac, Stage::kSendCipher});
  const double transport_send = L.self_ns(pb::Span::kTransportSend);
  const double poll_self = L.self_ns(pb::Span::kPoll);
  std::vector<pb::LedgerEntry> ledger = {
      {"net.transport.send", transport_send},
      {"net.transport.poll_self", poll_self},
      {"net.stack.send_self", stack_send},
      {"net.stack.recv_self", stack_recv},
      {"fbs.send.classify", classify_self},
      {"fbs.send.key", all_ns[st(Stage::kSendKeyDerive)]},
      {"fbs.send.fused", send_crypto},
      {"fbs.send.wire", main_ns[st(Stage::kSendWire)]},
      {"fbs.recv.parse", main_ns[st(Stage::kRecvParse)]},
      {"fbs.recv.freshness", main_ns[st(Stage::kRecvFreshness)]},
      {"fbs.recv.key", main_ns[st(Stage::kRecvKey)]},
      {"fbs.recv.crypto", sum(main_ns, {Stage::kRecvFused, Stage::kRecvCipher,
                                        Stage::kRecvBatchCrypto})},
      {"fbs.recv.mac", main_ns[st(Stage::kRecvMac)]},
      {"app.handler", L.self_ns(pb::Span::kHandler)},
      {"fbs.pipeline.drain", L.self_ns(pb::Span::kDrain)},
      {"fbs.pipeline.wait", L.self_ns(pb::Span::kWait)},
  };
  const double residual = pb::residual_share(wall_ns, ledger);
  std::printf("ledger (main thread, us per delivered datagram, %llu "
              "datagrams over %.3f s):\n",
              static_cast<unsigned long long>(world.delivered_total()),
              wall_ns * 1e-9);
  double named = 0;
  for (const auto& e : ledger) {
    std::printf("  %-26s %10.4f\n", e.name, per_dgram_us(e.ns));
    named += e.ns;
  }
  std::printf("  %-26s %10.4f  (%.2f%% of wall)\n", "residual",
              per_dgram_us(wall_ns - named), residual * 100.0);
  std::printf("  %-26s %10.4f\n", "total (wall)", per_dgram_us(wall_ns));
  if (opt.kind == Kind::kChurn)
    std::printf("  (server receive stages run on the pipeline workers and "
                "are reported as fbs.recv.* beside the ledger)\n");

  double busy_sum = 0, busy_max = 0;
  std::size_t workers = 0;
  std::uint64_t backpressure = 0, heap_fallbacks = 0;
  for (auto& h : world.hosts()) {
    core::DatagramPipeline* p = h.fbs->pipeline();
    if (!p) continue;
    for (std::size_t w = 0; w < p->worker_count(); ++w) {
      const double share = static_cast<double>(p->worker_busy_ns(w)) / wall_ns;
      busy_sum += share;
      busy_max = std::max(busy_max, share);
      ++workers;
    }
    backpressure += p->stats().backpressure_drops;
    heap_fallbacks += p->buffer_pool().stats().heap_fallbacks;
  }
  std::uint64_t drops = 0;
  for (auto& s : world.sockets()) drops += s.udp->totals().dropped;

  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  std::vector<double> ca, dh, fc;
  for (const auto& s : setups) {
    ca.push_back(s.ca_s);
    dh.push_back(s.dh_keygen_s);
    fc.push_back(s.first_contact_s);
  }
  const auto [seal_us, open_us] =
      calibrate_crypto(body_sizes(opt, world.payload_budget()), payloads);
  const double untraced_ns =
      untraced.elapsed_s * 1e9 / static_cast<double>(untraced.delivered);
  const double traced_ns =
      traced.elapsed_s * 1e9 / static_cast<double>(traced.delivered);
  // Under the default merged FST+TFKC path the FAM's own counters stay at
  // zero: the merged table is the mapper, and its miss is a TFKC miss.
  const double tfkc_miss =
      ratio(static_cast<double>(send_derived), static_cast<double>(send_dgrams));
  const double mapper_hit =
      fam_dgrams ? ratio(static_cast<double>(fam_hits),
                         static_cast<double>(fam_dgrams))
                 : 1.0 - tfkc_miss;

  return {
      {"net.transport.send_us", per_dgram_us(transport_send), "us"},
      {"net.transport.poll_self_us", per_dgram_us(poll_self), "us"},
      {"net.transport.frames_per_poll",
       ratio(static_cast<double>(L.count(pb::Span::kSink)),
             static_cast<double>(L.count(pb::Span::kPoll))),
       "frames"},
      {"net.transport.drops", static_cast<double>(drops), "count"},
      {"net.stack.send_self_us", per_dgram_us(stack_send), "us"},
      {"net.stack.recv_self_us", per_dgram_us(stack_recv), "us"},
      {"fbs.send.classify_us", per_dgram_us(classify_self), "us"},
      {"fbs.send.key_us", per_dgram_us(all_ns[st(Stage::kSendKeyDerive)]),
       "us"},
      {"fbs.send.fused_us", per_dgram_us(send_crypto), "us"},
      {"fbs.send.wire_us", per_dgram_us(all_ns[st(Stage::kSendWire)]), "us"},
      {"fbs.recv.parse_us", per_dgram_us(all_ns[st(Stage::kRecvParse)]),
       "us"},
      {"fbs.recv.freshness_us",
       per_dgram_us(all_ns[st(Stage::kRecvFreshness)]), "us"},
      {"fbs.recv.key_us", per_dgram_us(all_ns[st(Stage::kRecvKey)]), "us"},
      {"fbs.recv.crypto_us",
       per_dgram_us(sum(all_ns, {Stage::kRecvFused, Stage::kRecvCipher,
                                 Stage::kRecvBatchCrypto})),
       "us"},
      {"fbs.recv.mac_us", per_dgram_us(all_ns[st(Stage::kRecvMac)]), "us"},
      {"fbs.cache.tfkc.miss_rate", tfkc_miss, "share"},
      {"fbs.cache.rfkc.miss_rate", ratio(rfkc_misses, rfkc_hits + rfkc_misses),
       "share"},
      {"fbs.fam.mapper_hit_ratio", mapper_hit, "share"},
      {"fbs.fam.hash_evictions", static_cast<double>(fam_evictions), "count"},
      {"fbs.flow_keys_per_kpkt",
       1000.0 * static_cast<double>(send_derived + recv_derived) / n,
       "keys/kpkt"},
      {"fbs.keying.mkc.miss_rate",
       ratio(static_cast<double>(mkc_misses),
             static_cast<double>(mkc_hits + mkc_misses)),
       "share"},
      {"fbs.keying.upcalls", static_cast<double>(upcalls), "count"},
      {"setup.dh_keygen_s", pb::median(dh), "s"},
      {"setup.ca_s", pb::median(ca), "s"},
      {"setup.first_contact_s", pb::median(fc), "s"},
      {"fbs.pipeline.worker_busy_share.mean",
       workers ? busy_sum / static_cast<double>(workers) : 0.0, "share"},
      {"fbs.pipeline.worker_busy_share.max", busy_max, "share"},
      {"fbs.pipeline.drain_us", per_dgram_us(L.self_ns(pb::Span::kDrain)),
       "us"},
      {"fbs.pipeline.in_flight_max", static_cast<double>(world.in_flight_max()),
       "count"},
      {"fbs.pipeline.backpressure_drops", static_cast<double>(backpressure),
       "count"},
      {"fbs.pipeline.pool.heap_fallbacks", static_cast<double>(heap_fallbacks),
       "count"},
      {"crypto.calib_seal_us", seal_us, "us"},
      {"crypto.calib_open_us", open_us, "us"},
      {"app.handler_us", per_dgram_us(L.self_ns(pb::Span::kHandler)), "us"},
      {"ledger.residual_share", residual, "share"},
      {"trace_overhead", traced_ns / untraced_ns - 1.0, "share"},
  };
}

int run(const Options& opt) {
  const Payloads payloads(opt.seed);
  std::vector<SetupTimes> setups;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetupRepeats; ++i) {
    world.reset();
    world = std::make_unique<World>(opt, /*traced=*/false, payloads);
    setups.push_back(world->setup_times());
  }
  std::vector<double> setup_s;
  for (const auto& s : setups) setup_s.push_back(s.total_s);

  // A traced run spends half its time untraced, for trace_overhead.
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Measured m = measure(*world, untraced_s, opt.trace ? 1 : kSlices);
  std::printf("workload %s seed %llu: %llu exchanges in %.3f s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(m.tally.exchanges), m.elapsed_s);
  std::uint64_t failed = report_failures(*world, m.tally);
  std::uint64_t attempted = m.tally.attempted;
  if (!phase_ok(m.tally)) {
    print_result(false, std::max<std::uint64_t>(attempted, 1), failed, {});
    return 1;
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    print_slices(m);
    metrics = {
        {"setup_s", pb::median(setup_s), "s"},
        {"pps", median_over(m, [](const Slice& s) { return s.pps; }), "1/s"},
        {"goodput_mbps",
         median_over(m, [](const Slice& s) { return s.goodput_mbps; }),
         "Mb/s"},
        {"tps", median_over(m, [](const Slice& s) { return s.tps; }), "1/s"},
        {"rtt_wmedian_us",
         required(median_over(m, &Slice::rtt, wmedian_of), "rtt_wmedian_us"),
         "us"},
        {"lat_wmedian_us",
         required(median_over(m, &Slice::lat, wmedian_of), "lat_wmedian_us"),
         "us"},
        {"cpu_us_per_pkt",
         median_over(m, [](const Slice& s) { return s.cpu_us_per_pkt; }),
         "us"},
        {"intact_ratio",
         static_cast<double>(m.tally.delivered) /
             static_cast<double>(m.tally.attempted),
         "share"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    print_metrics(metrics);
    // Printed with the rest but left out of the result. The p99s: on a
    // shared host, scheduler stalls of a few milliseconds spread
    // server_churn's tails far beyond any bound a regression gate could
    // hold. The medians: when the host's speed flips between two modes, a
    // median jumps from one mode to the other once the mix crosses one half,
    // where the windowed median moves in proportion to the mix (README.md).
    struct Reported {
      const char* name;
      std::optional<pb::TimingSummary> Slice::*timing;
      std::optional<double> (*get)(const pb::TimingSummary&);
    };
    for (const Reported& r : {Reported{"rtt_p50_us", &Slice::rtt, p50_of},
                              Reported{"lat_p50_us", &Slice::lat, p50_of},
                              Reported{"rtt_p99_us", &Slice::rtt, p99_of},
                              Reported{"lat_p99_us", &Slice::lat, p99_of}}) {
      if (const auto v = median_over(m, r.timing, r.get))
        print_metrics({{r.name, *v, "us"}}, " (reported, not gated)");
      else
        std::printf("metric %-36s too few samples (reported, not gated)\n",
                    r.name);
    }
  } else {
    world.reset();
    World traced_world(opt, /*traced=*/true, payloads);
    const Measured t = measure(traced_world, opt.seconds - untraced_s, 1);
    failed += report_failures(traced_world, t.tally);
    attempted += t.tally.attempted;
    if (!phase_ok(t.tally)) {
      print_result(false, attempted, failed, {});
      return 1;
    }
    metrics = per_layer(opt, traced_world, m, t, setups, payloads);
    print_metrics(metrics);
  }
  print_result(true, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse_args(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: %s --workload <bulk_1408|rpc_64|server_churn> "
                   "--seed <n> --seconds <s> --trace <0|1>\n",
                   argv[0]);
      return 2;
    }
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fbs_perfbench: %s\n", e.what());
    return 1;
  }
}
