// Per-client request bookkeeping (PBFT's client table, Castro-Liskov §4.1).
//
// Replicas record, per client, the last request they executed for it: its
// request id, digest and the height it committed at. A retransmission of
// that request is answered straight from the table — one map lookup, no
// chain index probe, no re-consensus — which is the reply-cache fast path
// retry storms hammer. The chain index remains the fallback for replays of
// *older* requests (a client can retransmit anything it never saw a REPLY
// for), so the table is an accelerator, never the source of truth.
#pragma once

#include <cstddef>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "crypto/sha256.hpp"
#include "ledger/transaction.hpp"

namespace gpbft::pbft {

class ClientTable {
 public:
  struct Entry {
    RequestId last_request_id{0};
    crypto::Hash256 last_digest;
    Height last_height{0};
  };

  /// Records `tx`, whose digest is `digest`, as the sender's most recent
  /// executed request. Later requests (by request id) displace earlier
  /// ones; replays of older ids leave the entry untouched, so `find` always
  /// describes the newest executed request per client.
  void note_executed(const ledger::Transaction& tx, const crypto::Hash256& digest, Height height);

  /// The sender's entry, or nullptr if no request of theirs executed yet;
  /// valid until the next note_executed.
  [[nodiscard]] const Entry* find(NodeId sender) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  FlatMap<NodeId, Entry> entries_;  // keyed by sender
};

}  // namespace gpbft::pbft
