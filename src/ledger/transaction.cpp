#include "ledger/transaction.hpp"

namespace gpbft::ledger {

crypto::Hash256 Transaction::digest() const {
  const Bytes encoded = encode();
  return crypto::sha256(BytesView(encoded.data(), encoded.size()));
}

Transaction make_normal_tx(NodeId sender, RequestId request_id, Bytes payload, Amount fee,
                           const geo::GeoReport& geo) {
  Transaction tx;
  tx.kind = TxKind::Normal;
  tx.sender = sender;
  tx.sender_address = crypto::address_for_node(sender);
  tx.request_id = request_id;
  tx.payload = std::move(payload);
  tx.fee = fee;
  tx.geo = geo;
  return tx;
}

Transaction make_geo_report_tx(NodeId sender, RequestId request_id, const geo::GeoReport& geo) {
  return make_normal_tx(sender, request_id, Bytes{}, 0, geo);
}

bool is_geo_report_tx(const Transaction& tx) {
  return tx.kind == TxKind::Normal && tx.payload.empty() && tx.fee == 0;
}

Transaction make_config_tx(NodeId sender, RequestId request_id, EraConfig config,
                           const geo::GeoReport& geo) {
  Transaction tx;
  tx.kind = TxKind::Config;
  tx.sender = sender;
  tx.sender_address = crypto::address_for_node(sender);
  tx.request_id = request_id;
  tx.era_config = std::move(config);
  tx.geo = geo;
  return tx;
}

}  // namespace gpbft::ledger
