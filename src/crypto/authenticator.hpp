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
// Caching: pairwise session entries are derived once and cached; an entry
// also holds the precomputed HmacKey pad states, so a tag costs two SHA-256
// passes over the message, not a rederivation chain of four HMACs. The
// registry is handed out as a const reference, yet its const calls fill this
// cache, so one registry must not be shared between threads. Cache contents
// are pure functions of the genesis seed, so results never depend on the
// order in which links are first used.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/bytes.hpp"
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

  /// Symmetric pairwise session key (derived lazily, cached).
  [[nodiscard]] Hash256 session_key(NodeId a, NodeId b) const;

  /// One truncated tag for a single receiver, streaming `payload_parts`
  /// (logically concatenated) into the HMAC without materializing the
  /// buffer. This is the seal/open hot path; at most 7 parts, and more
  /// abort the process.
  [[nodiscard]] std::array<std::uint8_t, 8> tag(NodeId sender, NodeId receiver,
                                                std::span<const BytesView> payload_parts) const;

 private:
  /// Cached pairwise material: the 32-byte session key plus the HMAC pad
  /// states precomputed from it.
  struct SessionEntry {
    Hash256 key;
    HmacKey mac;
  };
  /// Stable reference into the session cache (entries are never erased).
  [[nodiscard]] const SessionEntry& session_entry(NodeId a, NodeId b) const;

  /// A link is its (lower, higher) node-id pair, so both directions share
  /// one entry.
  using Link = std::pair<std::uint64_t, std::uint64_t>;
  struct LinkHash {
    std::size_t operator()(const Link& link) const {
      return std::hash<std::uint64_t>{}((link.first << 32) ^ link.second);
    }
  };

  std::uint64_t genesis_seed_;
  mutable std::unordered_map<Link, SessionEntry, LinkHash> sessions_;
};

}  // namespace gpbft::crypto
