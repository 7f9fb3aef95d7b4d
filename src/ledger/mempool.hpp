// Mempool: pending transactions awaiting inclusion.
//
// FIFO with digest-based dedup. The primary drains a bounded batch per
// consensus instance; transactions already committed are filtered on pop so
// retransmissions (the client sends to multiple endorsers, §III-B1) do not
// double-commit.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "common/flat_map.hpp"
#include "ledger/transaction.hpp"

namespace gpbft::ledger {

class Mempool {
 public:
  explicit Mempool(std::size_t capacity = 100'000);

  /// Adds a transaction under `digest`, which must be tx.digest(): callers
  /// already hold it, and the pool keeps it beside the entry so that
  /// pop_batch and remove never re-hash. Returns false for duplicates or
  /// when full.
  bool add(Transaction tx, const crypto::Hash256& digest);

  [[nodiscard]] bool contains(const crypto::Hash256& digest) const;
  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] bool empty() const { return queue_.empty(); }

  /// Pops up to `max_count` transactions, skipping (and discarding) any for
  /// which `already_committed` returns true.
  [[nodiscard]] std::vector<Transaction> pop_batch(
      std::size_t max_count,
      const std::function<bool(const crypto::Hash256&)>& already_committed);

  /// Drops a committed transaction if still queued (a backup clearing
  /// entries it saw in a block produced elsewhere).
  void remove(const crypto::Hash256& digest);

  void clear();

 private:
  struct Entry {
    crypto::Hash256 digest;
    Transaction tx;
  };

  std::size_t capacity_;
  std::deque<Entry> queue_;
  FlatSet<crypto::Hash256> digests_;
};

}  // namespace gpbft::ledger
