#include "ledger/block.hpp"

#include <algorithm>

#include "serde/reader.hpp"
#include "serde/writer.hpp"

namespace gpbft::ledger {

Bytes BlockHeader::encode() const {
  serde::Writer w;
  w.u64(height);
  w.raw(prev_hash.view());
  w.raw(merkle_root.view());
  w.u64(era);
  w.u64(view);
  w.u64(seq);
  w.i64(timestamp.ns);
  w.u64(producer.value);
  return w.take();
}

Result<BlockHeader> BlockHeader::decode(BytesView data) {
  serde::Reader r(data);
  BlockHeader h;

  auto height = r.u64();
  if (!height) return make_error(height.error());
  h.height = height.value();

  auto prev = r.raw(32);
  if (!prev) return make_error(prev.error());
  std::copy(prev.value().begin(), prev.value().end(), h.prev_hash.bytes.begin());

  auto root = r.raw(32);
  if (!root) return make_error(root.error());
  std::copy(root.value().begin(), root.value().end(), h.merkle_root.bytes.begin());

  auto era = r.u64();
  if (!era) return make_error(era.error());
  h.era = era.value();

  auto view = r.u64();
  if (!view) return make_error(view.error());
  h.view = view.value();

  auto seq = r.u64();
  if (!seq) return make_error(seq.error());
  h.seq = seq.value();

  auto ts = r.i64();
  if (!ts) return make_error(ts.error());
  h.timestamp = TimePoint{ts.value()};

  auto producer = r.u64();
  if (!producer) return make_error(producer.error());
  h.producer = NodeId{producer.value()};

  if (!r.exhausted()) return make_error("block header: trailing bytes");
  return h;
}

Bytes Block::encode() const {
  serde::Writer w;
  const Bytes header_bytes = header.encode();
  w.bytes(BytesView(header_bytes.data(), header_bytes.size()));
  w.varint(transactions.size());
  for (const Transaction& tx : transactions) {
    const Bytes tx_bytes = tx.encode();
    w.bytes(BytesView(tx_bytes.data(), tx_bytes.size()));
  }
  return w.take();
}

Result<Block> Block::decode(BytesView data) {
  serde::Reader r(data);
  Block block;

  auto header_bytes = r.bytes();
  if (!header_bytes) return make_error(header_bytes.error());
  auto header = BlockHeader::decode(
      BytesView(header_bytes.value().data(), header_bytes.value().size()));
  if (!header) return make_error(header.error());
  block.header = header.value();

  auto count = r.varint();
  if (!count) return make_error(count.error());
  if (count.value() > 1'000'000) return make_error("block: transaction count too large");
  // Every transaction costs at least one byte on the wire: a declared count
  // beyond the remaining buffer is forged, and must be rejected before it
  // sizes an allocation.
  if (count.value() > r.remaining()) return make_error("block: transaction count exceeds payload");
  block.transactions.reserve(static_cast<std::size_t>(count.value()));
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto tx_bytes = r.bytes();
    if (!tx_bytes) return make_error(tx_bytes.error());
    auto tx = Transaction::decode(BytesView(tx_bytes.value().data(), tx_bytes.value().size()));
    if (!tx) return make_error(tx.error());
    block.transactions.push_back(std::move(tx.value()));
  }

  if (!r.exhausted()) return make_error("block: trailing bytes");
  return block;
}

crypto::Hash256 Block::hash() const {
  const Bytes encoded = header.encode();
  return crypto::sha256(BytesView(encoded.data(), encoded.size()));
}

crypto::Hash256 Block::compute_merkle_root() const {
  std::vector<crypto::Hash256> leaves;
  leaves.reserve(transactions.size());
  for (const Transaction& tx : transactions) leaves.push_back(tx.digest());
  return crypto::MerkleTree::compute_root(leaves);
}

Result<std::vector<crypto::Hash256>> check_body(const std::vector<Transaction>& transactions,
                                                const crypto::Hash256& merkle_root) {
  std::vector<crypto::Hash256> leaves;
  leaves.reserve(transactions.size());
  for (const Transaction& tx : transactions) leaves.push_back(tx.digest());
  if (crypto::MerkleTree::compute_root(leaves) != merkle_root) {
    return make_error("merkle root does not commit to the body");
  }
  std::vector<crypto::Hash256> sorted = leaves;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return make_error("a transaction repeats in the body");
  }
  return leaves;
}

Result<CheckedBlock> CheckedBlock::check(Block block) {
  auto digests = check_body(block.transactions, block.header.merkle_root);
  if (!digests) return make_error(digests.error());
  return CheckedBlock(std::make_shared<const Block>(std::move(block)),
                      std::move(digests.value()));
}

Amount Block::total_fees() const {
  Amount total = 0;
  for (const Transaction& tx : transactions) total += tx.fee;
  return total;
}

Block build_block(const BlockHeader& prev, std::vector<Transaction> transactions, EraId era,
                  ViewId view, SeqNum seq, TimePoint timestamp, NodeId producer) {
  Block block;
  block.transactions = std::move(transactions);
  block.header.height = prev.height + 1;

  // prev.hash(): hash of the previous header.
  Block prev_block;
  prev_block.header = prev;
  block.header.prev_hash = prev_block.hash();

  block.header.merkle_root = block.compute_merkle_root();
  block.header.era = era;
  block.header.view = view;
  block.header.seq = seq;
  block.header.timestamp = timestamp;
  block.header.producer = producer;
  return block;
}

}  // namespace gpbft::ledger
