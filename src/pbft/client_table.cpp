#include "pbft/client_table.hpp"

namespace gpbft::pbft {

void ClientTable::note_executed(const ledger::Transaction& tx, const crypto::Hash256& digest,
                                Height height) {
  Entry& entry = entries_[tx.sender];
  if (entry.last_height != 0 && tx.request_id < entry.last_request_id) return;
  entry.last_request_id = tx.request_id;
  entry.last_digest = digest;
  entry.last_height = height;
}

const ClientTable::Entry* ClientTable::find(NodeId sender) const { return entries_.find(sender); }

}  // namespace gpbft::pbft
