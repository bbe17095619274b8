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

}  // namespace

void CryptoBatch::open_cbc(std::span<const CbcOpenJob> jobs) {
  std::size_t total = 0;
  for (const CbcOpenJob& job : jobs) total += open_blocks(job);
  if (total == 0) return;
  if (total < kScalarThresholdBlocks) {
    for (const CbcOpenJob& job : jobs) open_scalar(job);
    return;
  }

  // A non-multiple-of-kLanes total would spend a whole extra gate-network
  // pass on a mostly-empty lane set (worst case: kLanes+1 blocks = one full
  // pass plus a 1/kLanes-filled one). When the leftover is small enough
  // that the scalar core finishes it faster than one wide pass would --
  // the wide engine runs ~4x the scalar per-byte throughput (DESIGN.md 5h),
  // so below kLanes/4 blocks -- peel it off the end of the global sequence
  // and run it scalar instead, keeping every wide pass full.
  constexpr std::size_t kWideOverScalar = 4;
  std::size_t spill = total % kLanes;
  if (spill * kWideOverScalar >= kLanes) spill = 0;
  const std::size_t wide_total = total - spill;

  // CBC decrypt is block-parallel across (and within) datagrams: treat the
  // burst as one job-major global block sequence and give each lane a
  // contiguous run, so a lane's key only changes when its cursor crosses a
  // job boundary. Lane state is raw pointers plus the running chain word,
  // so the steady-state pass touches no job metadata at all.
  struct Cursor {
    const std::uint8_t* ct = nullptr;  // next ciphertext block
    std::uint8_t* pt = nullptr;        // next plaintext slot
    std::uint64_t chain = 0;           // CBC chain into the next block
    std::size_t remaining = 0;         // blocks left in this lane's run
    std::size_t left_in_job = 0;       // blocks left in the current job
    std::size_t job = 0;               // index into jobs
  };
  Cursor cur[kLanes];
  const std::size_t q = wide_total / kLanes;
  const std::size_t rem = wide_total % kLanes;
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
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      std::size_t len = q + (lane < rem ? 1 : 0);
      Cursor& c = cur[lane];
      c.remaining = len;
      if (len > 0) {
        const CbcOpenJob& job = jobs[j];
        c.job = j;
        c.ct = job.ciphertext.data() + Des::kBlockSize * b;
        c.pt = job.plaintext + Des::kBlockSize * b;
        c.left_in_job = open_blocks(job) - b;
        c.chain = b == 0 ? job.iv : Des::load_be64(c.ct - Des::kBlockSize);
      }
      while (len > 0) {
        const std::size_t step = std::min(len, open_blocks(jobs[j]) - b);
        b += step;
        len -= step;
        normalize();
      }
    }
  }

  const DesBitsliceKeySchedule* lane_sched[kLanes];
  bool single_key = true;
  for (const CbcOpenJob& job : jobs) {
    if (job.schedule != jobs.front().schedule) {
      single_key = false;
      break;
    }
  }
  if (single_key) {
    engine_.set_all_lanes(*jobs.front().schedule);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      lane_sched[lane] = jobs.front().schedule;
    }
  } else {
    std::array<const DesBitsliceKeySchedule*, kLanes> ptrs;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      ptrs[lane] = cur[lane].remaining != 0 ? jobs[cur[lane].job].schedule
                                            : jobs.front().schedule;
      lane_sched[lane] = ptrs[lane];
    }
    engine_.set_lanes(ptrs);
  }

  const std::size_t passes = q + (rem != 0 ? 1 : 0);
  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::uint64_t blocks[kLanes];
    std::uint64_t cin[kLanes];
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      blocks[lane] = cin[lane] =
          cur[lane].remaining != 0 ? Des::load_be64(cur[lane].ct) : 0;
    }
    engine_.decrypt(blocks);
    ++stats_.passes;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      Cursor& c = cur[lane];
      if (c.remaining == 0) continue;
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
      for (std::size_t k = b; k < n; ++k) {
        const std::uint64_t c = Des::load_be64(ct);
        Des::store_be64(job.des->decrypt_block(c) ^ chain, pt);
        chain = c;
        ct += Des::kBlockSize;
        pt += Des::kBlockSize;
      }
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
  if (total < kScalarThresholdBlocks) {
    for (const CbcSealJob& job : jobs) seal_scalar(job);
    return;
  }

  bool single_key = true;
  for (const CbcSealJob& job : jobs) {
    if (job.schedule != jobs.front().schedule) {
      single_key = false;
      break;
    }
  }
  if (single_key) {
    engine_.set_all_lanes(*jobs.front().schedule);
  } else {
    std::array<const DesBitsliceKeySchedule*, kLanes> ptrs;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      ptrs[lane] = jobs[std::min(lane, jobs.size() - 1)].schedule;
    }
    engine_.set_lanes(ptrs);
  }

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
    engine_.encrypt(blocks);
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
  const std::uint8_t* ct = job.ciphertext.data();
  std::uint8_t* pt = job.plaintext;
  for (std::size_t b = 0; b < n; ++b) {
    const std::uint64_t c = Des::load_be64(ct);
    Des::store_be64(job.des->decrypt_block(c) ^ chain, pt);
    chain = c;
    ct += Des::kBlockSize;
    pt += Des::kBlockSize;
  }
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
