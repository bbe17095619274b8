// A net::Transport decorator for traced runs: it forwards every call to the
// wrapped UdpTransport and opens a span around send() and around each frame
// sink the transport dispatches to, so the benchmark can split transport
// time from the stack above it without a probe inside the library.
#pragma once

#include <utility>

#include "net/transport.hpp"
#include "net/udp_transport.hpp"
#include "stats.hpp"

namespace perfbench {

class TracedTransport final : public fbs::net::Transport {
 public:
  TracedTransport(fbs::net::UdpTransport& inner, SpanLedger& ledger)
      : inner_(inner), ledger_(ledger) {}

  void attach(fbs::net::Ipv4Address addr, ReceiveFn receive) override {
    inner_.attach(addr, [this, receive = std::move(receive)](
                            fbs::util::Bytes frame) {
      ScopedSpan span(&ledger_, Span::kSink);
      receive(std::move(frame));
    });
  }
  void detach(fbs::net::Ipv4Address addr) override { inner_.detach(addr); }
  void send(fbs::net::Ipv4Address from, fbs::net::Ipv4Address to,
            fbs::util::Bytes frame) override {
    ScopedSpan span(&ledger_, Span::kTransportSend);
    inner_.send(from, to, std::move(frame));
  }
  void call_later(fbs::util::TimeUs delay, std::function<void()> fn) override {
    inner_.call_later(delay, std::move(fn));
  }
  Totals totals() const override { return inner_.totals(); }
  void register_metrics(fbs::obs::MetricsRegistry& registry,
                        const std::string& prefix) const override {
    inner_.register_metrics(registry, prefix);
  }

 private:
  fbs::net::UdpTransport& inner_;
  SpanLedger& ledger_;
};

}  // namespace perfbench
