#include "crypto/batch.hpp"

#include <algorithm>
#include <array>

#include "crypto/block_modes.hpp"

namespace fbs::crypto {
namespace {

std::size_t open_blocks(const CbcOpenJob& job) {
  return job.ciphertext.size() / Des::kBlockSize;
}

std::size_t seal_blocks(const CbcSealJob& job) {
  return CryptoBatch::padded_size(job.plaintext.size()) / Des::kBlockSize;
}

/// The padded final block of `plaintext` as a CBC input word.
std::uint64_t tail_block(util::BytesView plaintext) {
  std::uint8_t last[Des::kBlockSize];
  detail::pkcs7_last_block(plaintext, last);
  return Des::load_be64(last);
}

/// 64-lane groups needed to hold `lanes` lit lanes (lanes 0..lanes-1).
constexpr std::size_t groups_for(std::size_t lanes) {
  return (lanes + DesBitslice::kGroupLanes - 1) / DesBitslice::kGroupLanes;
}

/// Wide cost of one pass lighting `lanes` lanes.
constexpr double pass_ns(std::size_t lanes) {
  using Cost = CryptoBatch::Cost;
  return Cost::kPassNs + static_cast<double>(groups_for(lanes)) * Cost::kGroupNs;
}

/// Cost of loading lane keys for `lanes` lit lanes.
constexpr double key_load_ns(std::size_t lanes, bool mixed_keys) {
  using Cost = CryptoBatch::Cost;
  return mixed_keys ? static_cast<double>(groups_for(lanes)) * Cost::kMixedGroupNs
                    : Cost::kBroadcastNs;
}

/// What the wide path must undercut: the scalar cost of `blocks`, scaled
/// by the routing margin.
constexpr double scalar_bar_ns(std::size_t blocks) {
  using Cost = CryptoBatch::Cost;
  return static_cast<double>(blocks) * Cost::kScalarBlockNs *
         Cost::kWideMargin;
}

/// Whether seal_cbc runs a group of `jobs` (<= kLanes) datagrams totalling
/// `total_blocks` padded blocks, the longest `max_blocks`, wide: one job
/// per lane and one block per pass, so every pass lights the jobs' groups
/// and the longest job sets the pass count.
bool seal_goes_wide(std::size_t jobs, std::size_t total_blocks,
                    std::size_t max_blocks, bool mixed_keys) {
  const double wide = static_cast<double>(max_blocks) * pass_ns(jobs) +
                      key_load_ns(jobs, mixed_keys);
  return wide < scalar_bar_ns(total_blocks);
}

template <typename Job>
bool mixed_keys(std::span<const Job> jobs) {
  for (const Job& job : jobs)
    if (job.schedule != jobs.front().schedule) return true;
  return false;
}

}  // namespace

CryptoBatch::Stats& CryptoBatch::Stats::operator+=(const Stats& o) {
  bitsliced_blocks += o.bitsliced_blocks;
  scalar_blocks += o.scalar_blocks;
  passes += o.passes;
  key_loads += o.key_loads;
  lane_rekeys += o.lane_rekeys;
  return *this;
}

CryptoBatch::Stats CryptoBatch::Stats::operator-(const Stats& o) const {
  return Stats{bitsliced_blocks - o.bitsliced_blocks,
               scalar_blocks - o.scalar_blocks, passes - o.passes,
               key_loads - o.key_loads, lane_rekeys - o.lane_rekeys};
}

CryptoBatch::OpenPlan CryptoBatch::plan_open(std::size_t total_blocks,
                                             bool mixed_keys) {
  // Full passes light every lane and beat the scalar core many times over
  // (kLanes blocks against a pass plus kWords groups), so only the last,
  // partial pass is a real decision: run it wide, or spill its blocks to
  // the scalar core. A burst with no full pass must also pay its key load
  // out of that one pass; with full passes the load is already paid. A
  // lane run of one block never crosses a job boundary, so a burst with no
  // full pass never rekeys.
  const std::size_t full = total_blocks / kLanes;
  const std::size_t rem = total_blocks % kLanes;
  bool last_wide = false;
  if (rem != 0) {
    const double wide =
        pass_ns(rem) + (full == 0 ? key_load_ns(rem, mixed_keys) : 0.0);
    last_wide = wide < scalar_bar_ns(rem);
  }
  OpenPlan plan;
  plan.passes = full + (last_wide ? 1 : 0);
  plan.wide_blocks = full * kLanes + (last_wide ? rem : 0);
  return plan;
}

void CryptoBatch::open_cbc(std::span<const CbcOpenJob> jobs) {
  std::size_t total = 0;
  for (const CbcOpenJob& job : jobs) total += open_blocks(job);
  if (total == 0) return;
  const bool mixed = mixed_keys(jobs);
  const OpenPlan plan = plan_open(total, mixed);
  if (plan.passes == 0) {
    for (const CbcOpenJob& job : jobs) open_scalar(job);
    return;
  }
  const std::size_t wide_total = plan.wide_blocks;
  const std::size_t spill = total - wide_total;

  // CBC decrypt is block-parallel across (and within) datagrams: treat the
  // burst as one job-major global block sequence and give each lane a
  // contiguous run, so a lane's key only changes when its cursor crosses a
  // job boundary. Lane state is raw pointers plus the running chain word,
  // so the steady-state pass touches no job metadata at all.
  struct Cursor {
    const std::uint8_t* ct;   // next ciphertext block
    std::uint8_t* pt;         // next plaintext slot
    std::uint64_t chain;      // CBC chain into the next block
    std::size_t remaining;    // blocks left in this lane's run
    std::size_t left_in_job;  // blocks left in the current job
    std::size_t job;          // index into jobs
  };
  // Lanes 0..rem-1 carry q+1 blocks, the rest q; with no full pass only
  // lanes 0..rem-1 carry any, and the rest are never touched.
  const std::size_t q = wide_total / kLanes;
  const std::size_t rem = wide_total % kLanes;
  const std::size_t used = q != 0 ? kLanes : rem;
  Cursor cur[kLanes];
  {
    // Invariant between lanes: (j, b) points at an unconsumed block.
    std::size_t j = 0;
    std::size_t b = 0;
    const auto normalize = [&] {
      while (j < jobs.size() && b >= open_blocks(jobs[j])) {
        ++j;
        b = 0;
      }
    };
    normalize();
    for (std::size_t lane = 0; lane < used; ++lane) {
      std::size_t len = q + (lane < rem ? 1 : 0);
      const CbcOpenJob& job = jobs[j];
      Cursor& c = cur[lane];
      c.remaining = len;
      c.job = j;
      c.ct = job.ciphertext.data() + Des::kBlockSize * b;
      c.pt = job.plaintext + Des::kBlockSize * b;
      c.left_in_job = open_blocks(job) - b;
      c.chain = b == 0 ? job.iv : Des::load_be64(c.ct - Des::kBlockSize);
      while (len > 0) {
        const std::size_t step = std::min(len, open_blocks(jobs[j]) - b);
        b += step;
        len -= step;
        normalize();
      }
    }
  }

  // Lanes without work get no key (set_lanes skips a group with none).
  const DesBitsliceKeySchedule* lane_sched[kLanes];
  if (!mixed) {
    engine_.set_all_lanes(*jobs.front().schedule);
    for (std::size_t lane = 0; lane < used; ++lane) {
      lane_sched[lane] = jobs.front().schedule;
    }
  } else {
    std::array<const DesBitsliceKeySchedule*, kLanes> ptrs{};
    for (std::size_t lane = 0; lane < used; ++lane) {
      ptrs[lane] = lane_sched[lane] = jobs[cur[lane].job].schedule;
    }
    engine_.set_lanes(ptrs);
  }
  ++stats_.key_loads;

  // Every pass but a final partial one lights all lanes; that one lights
  // lanes 0..rem-1.
  for (std::size_t pass = 0; pass < plan.passes; ++pass) {
    const std::size_t lit = pass < q ? kLanes : rem;
    const std::size_t groups = groups_for(lit);
    std::uint64_t blocks[kLanes];
    std::uint64_t cin[kLanes];
    for (std::size_t lane = 0; lane < lit; ++lane) {
      blocks[lane] = cin[lane] = Des::load_be64(cur[lane].ct);
    }
    std::fill(blocks + lit, blocks + groups * DesBitslice::kGroupLanes, 0);
    engine_.decrypt(blocks, groups);
    ++stats_.passes;
    for (std::size_t lane = 0; lane < lit; ++lane) {
      Cursor& c = cur[lane];
      Des::store_be64(blocks[lane] ^ c.chain, c.pt);
      c.chain = cin[lane];
      c.ct += Des::kBlockSize;
      c.pt += Des::kBlockSize;
      --c.remaining;
      if (--c.left_in_job == 0 && c.remaining != 0) {
        std::size_t j = c.job + 1;
        while (open_blocks(jobs[j]) == 0) ++j;
        const CbcOpenJob& job = jobs[j];
        c.job = j;
        c.ct = job.ciphertext.data();
        c.pt = job.plaintext;
        c.chain = job.iv;
        c.left_in_job = open_blocks(job);
        const DesBitsliceKeySchedule* next = job.schedule;
        if (next != lane_sched[lane]) {
          engine_.set_lane(lane, *next);
          lane_sched[lane] = next;
          ++stats_.lane_rekeys;
        }
      }
    }
  }
  stats_.bitsliced_blocks += wide_total;

  if (spill != 0) {
    // Finish the last `spill` blocks of the global sequence on the scalar
    // core. A mid-job start chains from the preceding ciphertext block,
    // exactly like a mid-job lane run above.
    std::size_t j = 0;
    std::size_t acc = 0;
    while (acc + open_blocks(jobs[j]) <= wide_total)
      acc += open_blocks(jobs[j++]);
    for (std::size_t b = wide_total - acc; j < jobs.size(); ++j, b = 0) {
      const CbcOpenJob& job = jobs[j];
      const std::size_t n = open_blocks(job);
      if (b >= n) continue;
      const std::uint8_t* ct = job.ciphertext.data() + Des::kBlockSize * b;
      std::uint8_t* pt = job.plaintext + Des::kBlockSize * b;
      std::uint64_t chain =
          b == 0 ? job.iv : Des::load_be64(ct - Des::kBlockSize);
      job.des->decrypt_cbc(chain, ct, pt, n - b);
    }
    stats_.scalar_blocks += spill;
  }
}

void CryptoBatch::seal_cbc(std::span<const CbcSealJob> jobs) {
  for (std::size_t off = 0; off < jobs.size(); off += kLanes) {
    seal_group(jobs.subspan(off, std::min(kLanes, jobs.size() - off)));
  }
}

void CryptoBatch::seal_group(std::span<const CbcSealJob> jobs) {
  // CBC encrypt chains serially per datagram: one job per lane, peel one
  // block per pass. `jobs` has at most kLanes entries here.
  std::size_t total = 0;
  std::size_t passes = 0;
  for (const CbcSealJob& job : jobs) {
    const std::size_t n = seal_blocks(job);
    total += n;
    passes = std::max(passes, n);
  }
  const bool mixed = mixed_keys(jobs);
  if (!seal_goes_wide(jobs.size(), total, passes, mixed)) {
    for (const CbcSealJob& job : jobs) seal_scalar(job);
    return;
  }

  if (!mixed) {
    engine_.set_all_lanes(*jobs.front().schedule);
  } else {
    std::array<const DesBitsliceKeySchedule*, kLanes> ptrs{};
    for (std::size_t i = 0; i < jobs.size(); ++i) ptrs[i] = jobs[i].schedule;
    engine_.set_lanes(ptrs);
  }
  ++stats_.key_loads;
  const std::size_t groups = groups_for(jobs.size());

  std::uint64_t chain[kLanes];
  for (std::size_t i = 0; i < jobs.size(); ++i) chain[i] = jobs[i].iv;

  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::uint64_t blocks[kLanes] = {};
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const CbcSealJob& job = jobs[i];
      if (pass >= seal_blocks(job)) continue;
      const std::size_t off = pass * Des::kBlockSize;
      const std::uint64_t p = off + Des::kBlockSize <= job.plaintext.size()
                                  ? Des::load_be64(job.plaintext.data() + off)
                                  : tail_block(job.plaintext);
      blocks[i] = p ^ chain[i];
    }
    engine_.encrypt(blocks, groups);
    ++stats_.passes;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const CbcSealJob& job = jobs[i];
      if (pass >= seal_blocks(job)) continue;
      chain[i] = blocks[i];
      Des::store_be64(blocks[i], job.ciphertext + pass * Des::kBlockSize);
    }
  }
  stats_.bitsliced_blocks += total;
}

void CryptoBatch::open_scalar(const CbcOpenJob& job) {
  const std::size_t n = open_blocks(job);
  std::uint64_t chain = job.iv;
  job.des->decrypt_cbc(chain, job.ciphertext.data(), job.plaintext, n);
  stats_.scalar_blocks += n;
}

void CryptoBatch::seal_scalar(const CbcSealJob& job) {
  const std::size_t whole = job.plaintext.size() / Des::kBlockSize;
  std::uint64_t chain = job.iv;
  job.des->encrypt_cbc(chain, job.plaintext.data(), job.ciphertext, whole);
  std::uint8_t last[Des::kBlockSize];
  detail::pkcs7_last_block(job.plaintext, last);
  job.des->encrypt_cbc(chain, last, job.ciphertext + whole * Des::kBlockSize,
                       1);
  stats_.scalar_blocks += whole + 1;
}

}  // namespace fbs::crypto
