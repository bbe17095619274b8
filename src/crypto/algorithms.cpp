#include "crypto/algorithms.hpp"

namespace fbs::crypto {

std::uint8_t encode_suite(AlgorithmSuite suite) {
  return static_cast<std::uint8_t>(static_cast<std::uint8_t>(suite.mac) << 4 |
                                   static_cast<std::uint8_t>(suite.cipher));
}

std::optional<AlgorithmSuite> decode_suite(std::uint8_t wire) {
  const auto mac = static_cast<MacAlgorithm>(wire >> 4);
  const auto cipher = static_cast<CipherAlgorithm>(wire & 0xF);
  if (mac_size(mac) == 0) return std::nullopt;
  switch (cipher) {
    case CipherAlgorithm::kNone:
    case CipherAlgorithm::kDesCbc:
    case CipherAlgorithm::kDesEcb:
    case CipherAlgorithm::kDesCfb:
    case CipherAlgorithm::kDesOfb:
    case CipherAlgorithm::kDes3Ede:
      break;
    default:
      return std::nullopt;
  }
  return AlgorithmSuite{mac, cipher};
}

std::unique_ptr<Mac> make_mac(MacAlgorithm alg) {
  if (mac_size(alg) == 0) return nullptr;
  return std::make_unique<Mac>(alg);
}

std::optional<CipherMode> cipher_mode(CipherAlgorithm alg) {
  switch (alg) {
    case CipherAlgorithm::kNone:
      return std::nullopt;
    case CipherAlgorithm::kDesCbc:
    case CipherAlgorithm::kDes3Ede:
      return CipherMode::kCbc;
    case CipherAlgorithm::kDesEcb:
      return CipherMode::kEcb;
    case CipherAlgorithm::kDesCfb:
      return CipherMode::kCfb;
    case CipherAlgorithm::kDesOfb:
      return CipherMode::kOfb;
  }
  return std::nullopt;
}

}  // namespace fbs::crypto
