// Key registry and pairwise message tags.
//
// PBFT's well-known MAC optimisation (Castro & Liskov, OSDI'99 §5) replaces
// per-message public-key signatures with pairwise HMAC tags: a sender tags
// a message for a receiver with HMAC(session_key(sender, receiver),
// message). We adopt the pairwise tags:
//
//  * The KeyRegistry derives a deterministic identity key per node from the
//    genesis seed (trusted setup — G-PBFT targets consortium/private chains,
//    §I of the paper, where the operator provisions device keys).
//  * session_key(a, b) is HMAC(identity_key(min), "session" || max), so both
//    directions share one key and the derivation is symmetric.
//  * Every network message is a unicast envelope, so each carries exactly
//    one truncated 8-byte tag, for its one receiver (pbft::seal), never a
//    vector of them; tag truncation is standard for HMAC (RFC 2104 §5).
//
// The threat model (§III-A) matches: adversaries cannot forge or tamper with
// others' messages, only emit invalid ones of their own.
//
// Caching: each link's HmacKey (the two pad mid-states of its session key,
// one 64-byte cache line) is derived on the link's first tag and cached, so
// a tag costs two SHA-256 passes over the message, not a rederivation chain
// of four HMACs. The cache is one dense vector of HmacKeys plus a FlatMap
// from the packed (lower, higher) node-id pair to a vector slot, so a lookup
// is one hash probe and one line. The session key itself is not kept;
// session_key() re-derives it. The registry is handed out as a const
// reference, yet its const calls fill this cache, so one registry must not
// be shared between threads. Cache contents are pure functions of the
// genesis seed, so results never depend on the order in which links are
// first used.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "crypto/hmac.hpp"

namespace gpbft::crypto {

/// Deterministic identity/session key material for the whole deployment.
class KeyRegistry {
 public:
  explicit KeyRegistry(std::uint64_t genesis_seed);

  /// 32-byte identity key of a node (derived on every call; only a session
  /// cache miss needs it).
  [[nodiscard]] Hash256 identity_key(NodeId id) const;

  /// Symmetric pairwise session key (derived on every call; the cache
  /// keeps only its HMAC context).
  [[nodiscard]] Hash256 session_key(NodeId a, NodeId b) const;

  /// One truncated tag for a single receiver, streaming `payload_parts`
  /// (logically concatenated) into the HMAC without materializing the
  /// buffer. This is the seal/open hot path; at most 7 parts, and more
  /// abort the process.
  [[nodiscard]] std::array<std::uint8_t, 8> tag(NodeId sender, NodeId receiver,
                                                std::span<const BytesView> payload_parts) const;

 private:
  /// The cached HMAC context of the link {lo, hi}, both ids below 2^32 (all
  /// the simulator assigns), packed into one 64-bit index key; tag() derives
  /// a link with a larger id on every call instead. The reference is valid
  /// until the next call.
  [[nodiscard]] const HmacKey& session_mac(NodeId lo, NodeId hi) const;

  std::uint64_t genesis_seed_;
  mutable FlatMap<std::uint64_t, std::uint32_t, MixHash> session_slots_;  // link -> slot
  mutable std::vector<HmacKey> sessions_;
};

}  // namespace gpbft::crypto
