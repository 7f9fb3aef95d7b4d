#include "ledger/mempool.hpp"

#include <algorithm>

namespace gpbft::ledger {

Mempool::Mempool(std::size_t capacity) : capacity_(capacity) {}

bool Mempool::add(Transaction tx, const crypto::Hash256& digest) {
  if (queue_.size() >= capacity_) return false;
  if (!digests_.try_emplace(digest).second) return false;
  queue_.push_back(Entry{digest, std::move(tx)});
  return true;
}

bool Mempool::contains(const crypto::Hash256& digest) const { return digests_.contains(digest); }

std::vector<Transaction> Mempool::pop_batch(
    std::size_t max_count, const std::function<bool(const crypto::Hash256&)>& already_committed) {
  std::vector<Transaction> batch;
  while (batch.size() < max_count && !queue_.empty()) {
    Entry entry = std::move(queue_.front());
    queue_.pop_front();
    digests_.erase(entry.digest);
    if (already_committed && already_committed(entry.digest)) continue;
    batch.push_back(std::move(entry.tx));
  }
  return batch;
}

void Mempool::remove(const crypto::Hash256& digest) {
  if (!digests_.erase(digest)) return;
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [&digest](const Entry& entry) { return entry.digest == digest; });
  if (it != queue_.end()) queue_.erase(it);
}

void Mempool::clear() {
  queue_.clear();
  digests_.clear();
}

}  // namespace gpbft::ledger
