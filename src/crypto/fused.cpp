#include "crypto/fused.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>

#include "crypto/block_modes.hpp"

namespace fbs::crypto {

void fused_seal_into(const Des& des, std::uint64_t iv, const MacContext& mac,
                     util::BytesView mac_prefix, util::BytesView body,
                     std::uint8_t* mac_out, util::Bytes& ciphertext) {
  MacRun run(mac);
  run.update(mac_prefix);

  constexpr std::size_t kBlock = Des::kBlockSize;
  // One cache line (an MD5 block's worth) per step: the hash of chunk k
  // has no dependency on the cipher chain of chunk k+1, so the core runs
  // the two side by side while the chunk is still in L1.
  constexpr std::size_t kChunk = 8 * kBlock;
  const std::size_t whole = body.size() / kBlock * kBlock;
  // PKCS#7 always adds 1..8 bytes, so the ciphertext is exactly one block
  // past the last whole plaintext block; size it once up front.
  ciphertext.resize(whole + kBlock);

  std::uint64_t chain = iv;
  for (std::size_t off = 0; off < whole; off += kChunk) {
    const std::size_t n = std::min(kChunk, whole - off);
    des.encrypt_cbc(chain, &body[off], &ciphertext[off], n / kBlock);
    run.update(body.subspan(off, n));
  }

  // Tail: remaining plaintext is hashed; the padded final block encrypted.
  if (whole < body.size()) run.update(body.subspan(whole));
  std::uint8_t last[kBlock];
  detail::pkcs7_last_block(body, last);
  des.encrypt_cbc(chain, last, &ciphertext[whole], 1);

  run.finish_into(mac_out);
}

bool fused_open_into(const Des& des, std::uint64_t iv, const MacContext& mac,
                     util::BytesView mac_prefix, util::BytesView ciphertext,
                     std::uint8_t* mac_out, util::Bytes& body) {
  constexpr std::size_t kBlock = Des::kBlockSize;
  if (ciphertext.empty() || ciphertext.size() % kBlock != 0) return false;

  MacRun run(mac);
  run.update(mac_prefix);
  body.resize(ciphertext.size());

  // Chunk by chunk, as the seal: each chunk is hashed right after it is
  // decrypted, while still in L1 -- all but the last block, whose body
  // bytes are only known after the padding check.
  constexpr std::size_t kChunk = 8 * kBlock;
  const std::size_t last_off = ciphertext.size() - kBlock;
  std::uint64_t chain = iv;
  for (std::size_t off = 0; off < ciphertext.size(); off += kChunk) {
    const std::size_t n = std::min(kChunk, ciphertext.size() - off);
    des.decrypt_cbc(chain, &ciphertext[off], &body[off], n / kBlock);
    run.update({body.data() + off, std::min(n, last_off - off)});
  }

  if (!detail::pkcs7_unpad_in_place(body)) return false;
  if (body.size() > last_off)
    run.update({body.data() + last_off, body.size() - last_off});
  run.finish_into(mac_out);
  return true;
}

void fused_seal_batch(CryptoBatch& batch, std::span<FusedSealJob> jobs) {
  constexpr std::size_t kMax = CryptoBatch::kLanes;
  CbcSealJob wide[kMax];
  for (std::size_t off = 0; off < jobs.size(); off += kMax) {
    const std::size_t n = std::min(kMax, jobs.size() - off);
    for (std::size_t i = 0; i < n; ++i) {
      FusedSealJob& j = jobs[off + i];
      // The MAC covers the plaintext, so it needs no decrypt output and can
      // run now, per datagram, while the cipher leg goes wide below.
      j.mac->compute_into({j.mac_prefix, j.body}, j.mac_out);
      j.ciphertext->resize(CryptoBatch::padded_size(j.body.size()));
      wide[i] = CbcSealJob{j.des, j.schedule, j.iv, j.body,
                           j.ciphertext->data()};
    }
    batch.seal_cbc({wide, n});
  }
}

void fused_open_batch(CryptoBatch& batch, std::span<FusedOpenJob> jobs) {
  constexpr std::size_t kMax = CryptoBatch::kLanes;
  const auto whole_blocks = [](const FusedOpenJob& j) {
    return !j.ciphertext.empty() && j.ciphertext.size() % Des::kBlockSize == 0;
  };
  // Raw storage: the wide leg constructs only the work orders it uses,
  // where a CbcOpenJob[kMax] would zero 12 KiB on every call -- a few
  // percent of a 1408-byte open.
  alignas(CbcOpenJob) std::byte raw[kMax * sizeof(CbcOpenJob)];
  CbcOpenJob* const wide = reinterpret_cast<CbcOpenJob*>(raw);
  for (std::size_t off = 0; off < jobs.size(); off += kMax) {
    const std::span<FusedOpenJob> chunk =
        jobs.subspan(off, std::min(kMax, jobs.size() - off));
    std::size_t total = 0;
    const DesBitsliceKeySchedule* first = nullptr;
    bool mixed = false;
    for (const FusedOpenJob& j : chunk) {
      if (!whole_blocks(j)) continue;
      total += j.ciphertext.size() / Des::kBlockSize;
      if (first == nullptr) first = j.schedule;
      mixed |= j.schedule != first;
    }
    if (!CryptoBatch::open_goes_wide(total, mixed)) {
      // A chunk the wide engine would not beat takes the single fused
      // decrypt+MAC pass per datagram.
      for (FusedOpenJob& j : chunk)
        j.ok = fused_open_into(*j.des, j.iv, *j.mac, j.mac_prefix,
                               j.ciphertext, j.mac_out, *j.body);
      continue;
    }
    std::size_t m = 0;
    for (FusedOpenJob& j : chunk) {
      if (!whole_blocks(j)) continue;
      j.body->resize(j.ciphertext.size());
      std::construct_at(wide + m++, CbcOpenJob{j.des, j.schedule, j.iv,
                                               j.ciphertext, j.body->data()});
    }
    batch.open_cbc({wide, m});
    for (FusedOpenJob& j : chunk) {
      j.ok = whole_blocks(j) && detail::pkcs7_unpad_in_place(*j.body);
      if (j.ok) j.mac->compute_into({j.mac_prefix, *j.body}, j.mac_out);
    }
  }
}

}  // namespace fbs::crypto
