// The parallel receive pipeline: a worker pool draining per-shard ingress
// rings through the re-entrant engine into a single-consumer egress ring.
//
//   submit(header, wire) / submit_batch(header, wires)    [any thread]
//     -> ingress ring of the wire's flow domain (full ring = counted drop,
//        like a NIC ring overflow). submit_batch groups a burst by shard
//        first, so each touched ring is locked once per burst.
//   worker w drains the rings of shards s where s mod workers == w,
//   popping up to config.batch items per ring visit
//     -> FbsEndpoint::unprotect_burst_into(ctx, ...) with w's own
//        WorkContext and body buffers from the worker's BufferPool lane:
//        the whole popped burst enters the engine at once, so eligible
//        DES-CBC ciphertexts are decrypted cross-datagram by the 256-lane
//        bitsliced engine before per-datagram MAC verification
//     -> accepted bodies go to the egress ring in one batched (blocking)
//        push per burst -- work already paid for its cryptography;
//        rejections are counted and reported
//   drain(sink)                             [one thread -- the stack's]
//     -> pops results in bursts and hands them to the sink (IpStack::deliver)
//
// The static shard->worker assignment is what preserves per-flow ordering
// without any cross-worker coordination: every datagram of a flow hashes to
// one shard (see domain.hpp), one worker owns that shard's ring, and the
// ring is FIFO. Distinct flows on distinct shards proceed fully in
// parallel. Delivery order ACROSS flows is whatever the egress interleaving
// yields -- datagram semantics, the paper's own ground rule.
//
// Buffers: each worker acquires plaintext bodies from its own BufferPool
// lane and releases consumed wires back into it, so the steady-state hot
// path performs zero heap allocations (enforced by test_zero_alloc) and
// buffers never migrate cores. drain() hands body ownership to the sink;
// a caller that consumes bodies in place can recycle() them back.
//
// Accounting. Every submitted datagram ends in exactly one terminal
// bucket, so once in_flight() is zero:
//
//   submitted == backpressure_drops + rejected + drained
//                + egress_dropped + shutdown_discards
//
// and accepted == drained + egress_dropped (acceptance is the crypto
// verdict; egress_dropped are accepted results abandoned because shutdown
// cancelled a blocking egress push). shutdown_discards are ingress items
// still queued when stop() ran -- accounting them is what lets drain_all()
// terminate after a stop instead of spinning on in_flight forever.
//
// Per-worker busy time is accounted with a per-thread CPU clock (see
// busy_clock() for which one), so a bench can compute the critical-path
// aggregate throughput (bytes / max worker busy time) even on a machine
// with fewer cores than workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fbs/engine.hpp"
#include "net/ip.hpp"
#include "obs/metrics.hpp"
#include "util/buffer_pool.hpp"
#include "util/ring.hpp"
#include "util/worker_pool.hpp"

namespace fbs::core {

struct PipelineConfig {
  /// Worker threads. Clamped to the endpoint's shard count (a shard is
  /// single-consumer; more workers than shards would idle). 0 means 1.
  std::size_t workers = 1;
  /// Capacity of each per-shard ingress ring; a full ring drops (counted).
  std::size_t ingress_capacity = 1024;
  /// Capacity of the shared egress ring; full blocks the producing worker.
  std::size_t egress_capacity = 4096;
  /// Max items moved per ring visit: the unit over which mutex acquisitions,
  /// condvar signals and egress pushes are amortized. 0 means 1.
  std::size_t batch = 32;
  /// Buffer pool sizing for the per-worker body/wire recycling. 0 buffers
  /// means auto: enough for every worker to keep two bursts in flight.
  std::size_t pool_buffers = 0;
  std::size_t pool_buffer_bytes = 2048;
};

/// Owns the worker pool, the rings and the buffer pool; borrows the
/// endpoint. Construction starts the workers; stop() (or destruction)
/// stops them and accounts whatever was still queued. submit()/
/// submit_batch() may be called from any thread; drain()/drain_all()/
/// recycle() must be called from one thread at a time (the egress ring's
/// single consumer).
class DatagramPipeline {
 public:
  struct Stats {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> backpressure_drops{0};  // ingress ring full
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> drained{0};
    /// Accepted results abandoned because shutdown cancelled a blocking
    /// egress push (ring full, drain never came). Distinct from
    /// backpressure_drops: these already passed the cryptography.
    std::atomic<std::uint64_t> egress_dropped{0};
    /// Ingress items still queued when the pipeline stopped; drained
    /// unprocessed and accounted so in_flight reaches zero.
    std::atomic<std::uint64_t> shutdown_discards{0};
  };

  /// Called on a worker thread for every rejected datagram (counting; must
  /// be thread-safe, cheap, and must not call back into the pipeline).
  using RejectHook = std::function<void(ReceiveError)>;
  /// Receives each accepted (header, plaintext body) from drain().
  using Sink =
      std::function<void(const net::Ipv4Header&, util::Bytes body)>;

  DatagramPipeline(FbsEndpoint& endpoint, const PipelineConfig& config,
                   RejectHook on_reject = nullptr);
  ~DatagramPipeline();

  DatagramPipeline(const DatagramPipeline&) = delete;
  DatagramPipeline& operator=(const DatagramPipeline&) = delete;

  /// Hand a received FBS wire (post-reassembly) to the workers. False means
  /// the owning shard's ingress ring was full and the datagram was dropped
  /// (counted in stats().backpressure_drops) -- receive-side backpressure.
  bool submit(const net::Ipv4Header& header, util::Bytes wire);

  /// Batch submit: every wire shares `header` (one source host -- the shape
  /// a NIC receive burst has). Wires are grouped by shard so each touched
  /// ingress ring is locked and its worker woken once per burst, and
  /// submission order within a flow is preserved. Accepted wires are
  /// moved from; returns how many were accepted (the rest are counted
  /// backpressure drops and left untouched for the caller to retry).
  std::size_t submit_batch(const net::Ipv4Header& header,
                           std::span<util::Bytes> wires);

  /// Pop every currently ready result into `sink`; returns how many.
  std::size_t drain(const Sink& sink);

  /// Drain until every submitted datagram has been rejected, delivered or
  /// accounted by stop(). Safe to call before or after stop().
  void drain_all(const Sink& sink);

  /// Stop the workers and account every item still queued at that moment:
  /// residual ingress items become shutdown_discards, results stuck behind
  /// a full egress become egress_dropped. Idempotent; called by the
  /// destructor. After stop(), drain()/drain_all() still deliver whatever
  /// reached the egress ring, and new submits are refused (counted as
  /// backpressure).
  void stop();

  /// Return a consumed body buffer to the pool (drain-thread lane), so a
  /// caller that copies or parses bodies in place can keep the whole
  /// receive loop allocation-free. Call only from the drain thread.
  void recycle(util::Bytes&& buffer) {
    buffers_.release(drain_lane_, std::move(buffer));
  }

  /// Datagrams submitted but not yet rejected, drained or accounted.
  std::size_t in_flight() const {
    const auto v = in_flight_.load(std::memory_order_acquire);
    return v > 0 ? static_cast<std::size_t>(v) : 0;
  }

  std::size_t worker_count() const { return workers_.size(); }
  /// Cumulative thread-CPU time worker `w` has spent inside the engine.
  std::uint64_t worker_busy_ns(std::size_t w) const {
    return workers_[w]->busy_ns.load(std::memory_order_relaxed);
  }
  /// Which clock backs worker_busy_ns(): "thread-cputime" (Linux,
  /// CLOCK_THREAD_CPUTIME_ID) or "process-cputime" (the std::clock
  /// fallback -- still CPU time, never wall time, so a descheduled worker
  /// is never charged for its neighbors' work; but it sums all threads, so
  /// per-worker attribution is approximate).
  static std::string_view busy_clock();
  const Stats& stats() const { return stats_; }

  /// Ring-level ingress drop attribution. The total tracks
  /// stats().backpressure_drops (both count full-ring rejections; the ring
  /// counts at the source, submit() counts the policy decision), and the
  /// per-shard view pinpoints which flow domain is overloaded.
  std::uint64_t ingress_dropped() const {
    std::uint64_t n = 0;
    for (const auto& ring : ingress_) n += ring->dropped();
    return n;
  }
  std::uint64_t ingress_dropped(std::size_t shard) const {
    return ingress_[shard]->dropped();
  }
  std::size_t shard_count() const { return ingress_.size(); }

  /// The hot-path buffer pool (stats: heap fallbacks, high water, ...).
  const util::BufferPool& buffer_pool() const { return buffers_; }

  /// Publish pipeline counters, buffer-pool stats and per-worker busy time
  /// under `<prefix>.`.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const;

 private:
  struct Item {
    net::Ipv4Header header;
    util::Bytes wire;
  };
  struct Result {
    net::Ipv4Header header;
    util::Bytes body;
  };
  /// One worker's private world: its WorkContext (engine re-entrancy), its
  /// scratch principal, batch staging, the shards it owns, and its wakeup
  /// channel. `batch` and `results` are reserved to config.batch once so
  /// bursts never allocate.
  struct Worker {
    std::size_t index = 0;  // also this worker's BufferPool lane
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<std::int64_t> queued{0};  // items across this worker's rings
    std::atomic<std::uint64_t> busy_ns{0};
    WorkContext ctx;
    std::vector<Item> batch;      // pop_batch staging
    std::vector<Result> results;  // egress staging, flushed per burst
    std::vector<std::size_t> shards;
    /// Burst staging for unprotect_burst_into: per-item principals (storage
    /// reused across bursts), the pool bodies the plaintexts land in, and
    /// the engine's burst descriptors. Sized to config.batch once.
    std::vector<Principal> sources;
    std::vector<util::Bytes> bodies;
    std::vector<ReceiveBurstItem> burst;
  };

  void worker_loop(std::size_t w, const std::atomic<bool>& stop);
  void process_burst(Worker& wk);
  void flush_results(Worker& wk);
  void discard_residual_ingress(Worker& wk);
  void account_stranded(std::size_t shard);

  FbsEndpoint& endpoint_;
  PipelineConfig config_;
  RejectHook on_reject_;
  Stats stats_;
  std::atomic<std::int64_t> in_flight_{0};
  std::atomic<bool> stopped_{false};
  std::vector<std::unique_ptr<util::BoundedMpscRing<Item>>> ingress_;
  util::BoundedMpscRing<Result> egress_;
  std::vector<std::unique_ptr<Worker>> workers_;
  util::BufferPool buffers_;
  std::size_t drain_lane_ = 0;      // lane workers_.size(): the drain thread
  std::vector<Result> drain_buf_;   // drain() staging, single consumer
  util::WorkerPool pool_;  // last: joins before the state above dies
};

}  // namespace fbs::core
