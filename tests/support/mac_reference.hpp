// One-shot forms of the header MAC constructions, written straight from
// their definitions: the keyed prefix H(K | message) and RFC 2104 HMAC,
// re-keyed on every call with the padded key block on the heap. Kept ONLY
// as the oracle for MacContext, whose per-flow form precomputes the key
// and pad states once and restores them per message, so a slip in that
// precomputation shows as a mismatch against this one.
//
// It lives with the tests, outside the fbs_crypto library, so nothing on the
// datagram path can reach it.
#pragma once

#include <initializer_list>

#include "crypto/mac.hpp"
#include "util/bytes.hpp"

namespace fbs::crypto {

/// The tag `alg` puts on the concatenation of `chunks` under `key`.
util::Bytes mac_reference(MacAlgorithm alg, util::BytesView key,
                          std::initializer_list<util::BytesView> chunks);

}  // namespace fbs::crypto
