// The loop-form MD5 compression: RFC 1321's four rounds as one 64-iteration
// loop that picks the auxiliary function, message index and shift per step
// from the step number. Kept ONLY as the oracle for Md5's correctness tests:
// Md5 writes the step sequence out in full with inline constants and its
// own streaming buffer, while this one-shot form pads the whole message up
// front and walks the RFC's T[i] and shift tables, so a slip in one
// transcription shows as a mismatch against the other.
//
// It lives with the tests, outside the fbs_crypto library, so nothing on the
// datagram path can reach it.
#pragma once

#include "util/bytes.hpp"

namespace fbs::crypto {

/// One-shot MD5 of `message`.
util::Bytes md5_reference(util::BytesView message);

}  // namespace fbs::crypto
