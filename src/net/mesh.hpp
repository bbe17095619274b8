// Multi-hop transit mesh: routed topology over SimNetwork.
//
// The paper's tunnel mode (Section 6, firewall-to-firewall) presumes
// datagrams crossing a routed internet, but SimNetwork alone models a
// fully-connected segment. This module adds the transit fabric:
//
//   TransitRouter -- an IpStack in the gateway role plus one egress queue
//     per neighbor. Frames leave through the stack's transmit seam into a
//     LinkQueue (queue.hpp discipline) drained at the link's serialization
//     rate on the simulation clock; the wire hop itself (propagation delay,
//     loss, corruption) stays SimNetwork's job. FBS endpoints and tunnels
//     run across transit nodes unchanged -- they only ever see IP.
//
//   MeshNetwork -- owns the routers, the topology (edges + host
//     attachments), static shortest-path route computation, the hop-local
//     backpressure wiring (a congested router xoffs its upstream
//     neighbors), and router-granularity faults: link flaps and router
//     crash/restart with soft-state loss (queued frames wiped), extending
//     the PR-1 FaultPlan substrate from endpoints to the transit fabric.
//
// Routing is deliberately static-with-recomputation: a fault or heal
// triggers recompute_routes(), modeling an idealized routing protocol that
// has already converged. The scenarios that need convergence *races*
// (rekey-during-failover) schedule the recompute explicitly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/queue.hpp"
#include "net/simnet.hpp"
#include "net/stack.hpp"
#include "obs/metrics.hpp"

namespace fbs::net {

struct TransitLinkConfig {
  /// Egress serialization rate; 0 = infinite (queue drains instantly).
  double bandwidth_bps = 10e6;
  QueueParams queue;
  /// Wire characteristics of the hop (propagation delay, loss, ...);
  /// applied by SimNetwork between the two attached addresses. Leave
  /// bandwidth_bps zero here -- serialization is the queue's job.
  LinkParams wire;
  /// Backpressure watchdog: a paused link self-resumes after this long, so
  /// a pause cascade (or a crashed downstream router that never sends xon)
  /// cannot deadlock the mesh.
  util::TimeUs pause_timeout = util::TimeUs{50'000};
};

class TransitRouter {
 public:
  /// Raised/cleared when this router's backpressure queues cross their
  /// watermarks; the mesh wires it to pause/resume upstream neighbors.
  using CongestionSignal = std::function<void(Ipv4Address reporter, bool on)>;

  TransitRouter(Transport& net, const util::Clock& clock, Ipv4Address addr,
                util::RandomSource& rng, std::size_t mtu = 1500);

  /// Declare `neighbor` reachable through an egress queue + serializer.
  void add_link(Ipv4Address neighbor, const TransitLinkConfig& config);

  Ipv4Address address() const { return stack_.address(); }
  IpStack& stack() { return stack_; }

  // --- Faults (soft state only: queues; the stack's routes survive) ---

  /// Down the router: every queued frame is wiped (counted), frames in
  /// serialization are lost, and traffic offered while down is dropped.
  void crash();
  void restart();
  bool down() const { return down_; }

  // --- Hop-local backpressure (xoff/xon between adjacent routers) ---

  void set_congestion_signal(CongestionSignal signal) {
    congestion_ = std::move(signal);
  }
  /// Stop/resume draining the egress queue toward `neighbor` (the xoff a
  /// congested downstream router sends us). Pausing never drops; the queue
  /// absorbs until its own discipline rejects.
  void pause_link(Ipv4Address neighbor);
  void resume_link(Ipv4Address neighbor);

  struct LinkStats {
    LinkQueue::Stats queue;
    std::uint64_t sent = 0;             // handed to the wire
    std::uint64_t crash_tx_dropped = 0; // serialization cut by a crash
    std::uint64_t pauses = 0;           // xoff windows entered
    std::size_t depth = 0;
    bool paused = false;
  };
  /// Router-level drops happening before any queue is chosen.
  struct Stats {
    std::uint64_t no_route_dropped = 0;  // next hop is not a neighbor
    std::uint64_t down_dropped = 0;      // offered while crashed
    std::uint64_t crashes = 0;
  };

  std::vector<Ipv4Address> neighbors() const;
  /// nullptr when no link to `neighbor` exists.
  const LinkStats* link_stats(Ipv4Address neighbor) const;
  const Stats& stats() const { return stats_; }
  const LinkQueue* link_queue(Ipv4Address neighbor) const;

  /// Per-link depth/drop/latency metrics under
  /// `<prefix>.link.<neighbor>.`, plus the router-level counters.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const;

 private:
  struct Link {
    Ipv4Address neighbor;
    TransitLinkConfig cfg;
    LinkQueue queue;
    obs::LatencyRecorder queue_delay;  // enqueue -> serialization start
    bool busy = false;        // a frame is on the serializer
    bool paused = false;      // xoff from downstream
    bool xoff_raised = false; // we are the congested party
    std::uint64_t pause_epoch = 0;  // invalidates stale watchdogs
    std::uint64_t sent = 0;
    std::uint64_t crash_tx_dropped = 0;
    std::uint64_t pauses = 0;

    Link(Ipv4Address n, const TransitLinkConfig& c, util::RandomSource& rng)
        : neighbor(n), cfg(c), queue(c.queue, rng) {}
  };

  void transmit(Ipv4Address next_hop, util::Bytes frame);
  void start_tx(Link& link);
  void update_congestion(Link& link);

  Transport& net_;
  const util::Clock& clock_;
  IpStack stack_;
  util::RandomSource& rng_;
  std::map<Ipv4Address, std::unique_ptr<Link>> links_;
  Stats stats_;
  CongestionSignal congestion_;
  std::size_t congested_links_ = 0;
  bool down_ = false;
};

/// The routed fabric: routers, edges, host attachments, static routes, and
/// router-granularity fault scheduling.
class MeshNetwork {
 public:
  /// The mesh runs on the sim backend: its fault plan (per-hop LinkParams,
  /// partitions, crashes) drives SimNetwork's wire faults directly.
  MeshNetwork(SimNetwork& net, const util::Clock& clock,
              util::RandomSource& rng)
      : net_(net), clock_(clock), rng_(rng) {}

  TransitRouter& add_router(Ipv4Address addr);
  /// Bidirectional router<->router adjacency (one egress queue each way).
  void connect(Ipv4Address a, Ipv4Address b, const TransitLinkConfig& config);
  /// Attach an edge host (plain IpStack, FBS endpoint, security gateway)
  /// behind `router`: the router gets an access-link egress queue toward
  /// the host and routes to it; the host should default-route to `router`.
  void attach_host(Ipv4Address host, Ipv4Address router,
                   const TransitLinkConfig& config = {});

  /// Recompute every router's table: BFS shortest paths over up
  /// routers/links, /32 routes to every router and host. Destinations
  /// currently unreachable get no route, and the routers drop for them
  /// (counted in TransitRouter::Stats::no_route_dropped).
  void recompute_routes();

  // --- Router-granularity fault plan ---

  /// Sever a<->b for [from, until): wire frames drop (SimNetwork
  /// partition), the edge leaves the routing graph at `from` and rejoins at
  /// `until`, with routes recomputed at both transitions.
  void flap_link(Ipv4Address a, Ipv4Address b, util::TimeUs from,
                 util::TimeUs until);
  /// Crash `router` at `at`, restart at `until` (queued frames wiped, wire
  /// frames dropped while down, routes recomputed at both transitions).
  void crash_router(Ipv4Address router, util::TimeUs at, util::TimeUs until);

  TransitRouter& router(Ipv4Address addr) { return *routers_.at(addr); }
  const std::vector<Ipv4Address>& router_order() const { return order_; }
  std::size_t router_count() const { return routers_.size(); }

  struct Edge {
    Ipv4Address a, b;
    bool down = false;
  };
  const std::vector<Edge>& edges() const { return edges_; }

  /// Mesh-wide queue accounting, summed over every router and link; the
  /// chaos scenarios assert conservation over these.
  struct Totals {
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t tail_dropped = 0;
    std::uint64_t red_dropped = 0;
    std::uint64_t wiped = 0;
    std::uint64_t sent = 0;
    std::uint64_t crash_tx_dropped = 0;
    std::uint64_t no_route_dropped = 0;
    std::uint64_t down_dropped = 0;
    std::uint64_t depth = 0;  // frames still queued
  };
  Totals totals() const;

  /// Registers every router as `<prefix>.r<N>` (N = creation order).
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const;

 private:
  void set_edge_state(Ipv4Address a, Ipv4Address b, bool down);
  void schedule(util::TimeUs at, std::function<void()> fn);

  SimNetwork& net_;
  const util::Clock& clock_;
  util::RandomSource& rng_;
  std::map<Ipv4Address, std::unique_ptr<TransitRouter>> routers_;
  std::vector<Ipv4Address> order_;
  std::vector<Edge> edges_;
  std::map<Ipv4Address, Ipv4Address> hosts_;  // host -> access router
};

/// Topology builders; all return the router addresses in creation order.
/// Addresses are drawn from 10.200.0.0/24 (router i = 10.200.0.(i+1)).
Ipv4Address mesh_router_address(std::size_t index);
std::vector<Ipv4Address> build_line(MeshNetwork& mesh, std::size_t n,
                                    const TransitLinkConfig& config);
/// r0 - {r1, r2} - r3, the classic two-disjoint-paths failover shape.
std::vector<Ipv4Address> build_diamond(MeshNetwork& mesh,
                                       const TransitLinkConfig& config);
/// Connected random mesh: a ring (guarantees connectivity) plus
/// `extra_edges` distinct random chords, deterministic in `seed`.
std::vector<Ipv4Address> build_random_mesh(MeshNetwork& mesh, std::size_t n,
                                           std::size_t extra_edges,
                                           std::uint64_t seed,
                                           const TransitLinkConfig& config);

}  // namespace fbs::net
