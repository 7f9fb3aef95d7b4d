// Wire-format tests for every PBFT / G-PBFT message, plus seal/open framing.
#include <gtest/gtest.h>

#include "ledger/genesis.hpp"
#include "pbft/messages.hpp"

namespace gpbft::pbft {
namespace {

ledger::Transaction sample_tx() {
  geo::GeoReport report;
  report.point = geo::GeoPoint{22.39, 114.10};
  report.timestamp = TimePoint{Duration::seconds(3).ns};
  return ledger::make_normal_tx(NodeId{4}, 9, Bytes{7, 7, 7}, 12, report);
}

ledger::Block sample_block() {
  ledger::GenesisConfig config;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    config.initial_endorsers.push_back(
        ledger::EndorserInfo{NodeId{i}, geo::GeoPoint{22.39, 114.1}});
  }
  const ledger::Block genesis = ledger::make_genesis_block(config);
  return ledger::build_block(genesis.header, {sample_tx()}, 2, 1, 1,
                             TimePoint{Duration::seconds(4).ns}, NodeId{2});
}

template <typename T>
T roundtrip(const T& message) {
  const Bytes encoded = message.encode();
  auto decoded = T::decode(BytesView(encoded.data(), encoded.size()));
  EXPECT_TRUE(decoded.ok()) << (decoded.ok() ? "" : decoded.error());
  return std::move(decoded.value());
}

TEST(Messages, ClientRequestRoundtrip) {
  ClientRequest msg{sample_tx()};
  EXPECT_EQ(roundtrip(msg).transaction, msg.transaction);
}

TEST(Messages, PrePrepareRoundtrip) {
  PrePrepare msg;
  msg.view = 3;
  msg.seq = 17;
  msg.block = sample_block();
  msg.digest = msg.block.hash();
  const PrePrepare back = roundtrip(msg);
  EXPECT_EQ(back.view, 3u);
  EXPECT_EQ(back.seq, 17u);
  EXPECT_EQ(back.digest, msg.digest);
  EXPECT_EQ(back.block, msg.block);
}

TEST(Messages, PrepareCommitRoundtrip) {
  Prepare prepare;
  prepare.view = 1;
  prepare.seq = 2;
  prepare.digest = crypto::sha256("x");
  prepare.replica = NodeId{5};
  const Prepare p = roundtrip(prepare);
  EXPECT_EQ(p.replica, NodeId{5});
  EXPECT_EQ(p.digest, prepare.digest);

  Commit commit;
  commit.view = 9;
  commit.seq = 11;
  commit.digest = crypto::sha256("y");
  commit.replica = NodeId{6};
  const Commit c = roundtrip(commit);
  EXPECT_EQ(c.view, 9u);
  EXPECT_EQ(c.seq, 11u);
}

TEST(Messages, ReplyRoundtrip) {
  Reply msg;
  msg.view = 2;
  msg.replica = NodeId{3};
  msg.tx_digest = crypto::sha256("tx");
  msg.height = 40;
  const Reply back = roundtrip(msg);
  EXPECT_EQ(back.height, 40u);
  EXPECT_EQ(back.tx_digest, msg.tx_digest);
}

TEST(Messages, CheckpointRoundtrip) {
  CheckpointMsg msg;
  msg.seq = 16;
  msg.chain_digest = crypto::sha256("tip");
  msg.replica = NodeId{1};
  const CheckpointMsg back = roundtrip(msg);
  EXPECT_EQ(back.seq, 16u);
}

TEST(Messages, ViewChangeRoundtrip) {
  ViewChangeMsg msg;
  msg.new_view = 4;
  msg.last_executed = 12;
  PreparedProof proof;
  proof.view = 3;
  proof.seq = 13;
  proof.block = sample_block();
  proof.digest = proof.block.hash();
  msg.prepared.push_back(proof);
  msg.replica = NodeId{2};

  const ViewChangeMsg back = roundtrip(msg);
  EXPECT_EQ(back.new_view, 4u);
  EXPECT_EQ(back.last_executed, 12u);
  ASSERT_EQ(back.prepared.size(), 1u);
  EXPECT_EQ(back.prepared[0].seq, 13u);
  EXPECT_EQ(back.prepared[0].block, proof.block);
}

TEST(Messages, NewViewRoundtrip) {
  NewViewMsg msg;
  msg.new_view = 7;
  ViewChangeMsg vc;
  vc.new_view = 7;
  vc.replica = NodeId{1};
  msg.proofs.push_back(vc);
  PrePrepare pp;
  pp.view = 7;
  pp.seq = 3;
  pp.block = sample_block();
  pp.digest = pp.block.hash();
  msg.preprepares.push_back(pp);
  msg.primary = NodeId{3};

  const NewViewMsg back = roundtrip(msg);
  EXPECT_EQ(back.new_view, 7u);
  ASSERT_EQ(back.proofs.size(), 1u);
  ASSERT_EQ(back.preprepares.size(), 1u);
  EXPECT_EQ(back.primary, NodeId{3});
}

TEST(Messages, SyncRoundtrip) {
  SyncRequest request;
  request.from_height = 17;
  request.requester = NodeId{4};
  const SyncRequest req_back = roundtrip(request);
  EXPECT_EQ(req_back.from_height, 17u);
  EXPECT_EQ(req_back.requester, NodeId{4});

  SyncResponse response;
  response.blocks.push_back(sample_block());
  response.responder = NodeId{2};
  const SyncResponse resp_back = roundtrip(response);
  ASSERT_EQ(resp_back.blocks.size(), 1u);
  EXPECT_EQ(resp_back.blocks[0], response.blocks[0]);
  EXPECT_EQ(resp_back.responder, NodeId{2});
}

TEST(Messages, GeoReportRoundtrip) {
  GeoReportMsg msg;
  msg.device = NodeId{77};
  msg.latitude = 22.396;
  msg.longitude = 114.109;
  msg.reported_at = TimePoint{Duration::seconds(100).ns};
  const GeoReportMsg back = roundtrip(msg);
  EXPECT_EQ(back.device, NodeId{77});
  EXPECT_DOUBLE_EQ(back.latitude, 22.396);
  EXPECT_DOUBLE_EQ(back.longitude, 114.109);
  EXPECT_EQ(back.reported_at.ns, Duration::seconds(100).ns);
}

TEST(Messages, EraControlRoundtrip) {
  EraHaltMsg halt;
  halt.closing_era = 5;
  halt.sender = NodeId{2};
  EXPECT_EQ(roundtrip(halt).closing_era, 5u);

  EraLaunchMsg launch;
  launch.config.era = 6;
  launch.config.endorsers = {NodeId{1}, NodeId{2}, NodeId{5}};
  launch.config_height = 14;
  launch.sender = NodeId{2};
  launch.blocks.push_back(sample_block());
  const EraLaunchMsg back = roundtrip(launch);
  EXPECT_EQ(back.config.era, 6u);
  EXPECT_EQ(back.config.endorsers.size(), 3u);
  ASSERT_EQ(back.blocks.size(), 1u);
  EXPECT_EQ(back.blocks[0], launch.blocks[0]);
}

TEST(Messages, DecodeRejectsTruncation) {
  PrePrepare msg;
  msg.view = 1;
  msg.seq = 1;
  msg.block = sample_block();
  msg.digest = msg.block.hash();
  Bytes encoded = msg.encode();
  encoded.resize(encoded.size() / 2);
  EXPECT_FALSE(PrePrepare::decode(BytesView(encoded.data(), encoded.size())).ok());
}

TEST(Messages, TypeNamesKnown) {
  EXPECT_STREQ(message_type_name(msg_type::kPrePrepare), "PRE-PREPARE");
  EXPECT_STREQ(message_type_name(msg_type::kGeoReport), "GEO-REPORT");
  EXPECT_STREQ(message_type_name(999), "UNKNOWN");
}

// --- seal/open ---------------------------------------------------------------------

TEST(Seal, RoundtripWithMacs) {
  crypto::KeyRegistry keys(11);
  const Bytes body = {1, 2, 3, 4};
  const Bytes sealed = seal(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare,
                            BytesView(body.data(), body.size()), true);
  const auto opened = open(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare,
                           BytesView(sealed.data(), sealed.size()), true);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), body);
}

TEST(Seal, TamperedBodyRejected) {
  crypto::KeyRegistry keys(11);
  const Bytes body = {1, 2, 3, 4};
  Bytes sealed = seal(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare,
                      BytesView(body.data(), body.size()), true);
  sealed[1] ^= 0x01;  // flips a body byte (offset 0 is the length varint)
  EXPECT_FALSE(open(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare,
                    BytesView(sealed.data(), sealed.size()), true)
                   .ok());
}

TEST(Seal, SpoofedSenderRejected) {
  crypto::KeyRegistry keys(11);
  const Bytes body = {1};
  const Bytes sealed = seal(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare,
                            BytesView(body.data(), body.size()), true);
  // The envelope claims sender 3 but the sealed frame says 1.
  EXPECT_FALSE(open(keys, NodeId{3}, NodeId{2}, msg_type::kPrepare,
                    BytesView(sealed.data(), sealed.size()), true)
                   .ok());
}

TEST(Seal, WrongReceiverRejected) {
  crypto::KeyRegistry keys(11);
  const Bytes body = {1};
  const Bytes sealed = seal(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare,
                            BytesView(body.data(), body.size()), true);
  EXPECT_FALSE(open(keys, NodeId{1}, NodeId{9}, msg_type::kPrepare,
                    BytesView(sealed.data(), sealed.size()), true)
                   .ok());
}

TEST(Seal, MacsOffStillFramesAndSizesEqually) {
  crypto::KeyRegistry keys(11);
  const Bytes body = {5, 6, 7};
  const Bytes with_macs = seal(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare,
                               BytesView(body.data(), body.size()), true);
  const Bytes without = seal(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare,
                             BytesView(body.data(), body.size()), false);
  EXPECT_EQ(with_macs.size(), without.size());  // byte accounting must match
  const auto opened =
      open(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare,
           BytesView(without.data(), without.size()), false);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), body);
}

TEST(Seal, RetypedEnvelopeRejected) {
  // Prepare and Commit share one field layout, so a MAC over the body
  // alone would let the wire adversary's type-confusion family turn a
  // genuine Prepare into a forged Commit. The MAC binds the envelope type:
  // the same sealed bytes must only open under the type they were sealed
  // for.
  crypto::KeyRegistry keys(11);
  Prepare prepare;
  prepare.view = 1;
  prepare.seq = 2;
  prepare.replica = NodeId{3};
  const Bytes body = prepare.encode();
  const Bytes sealed = seal(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare,
                            BytesView(body.data(), body.size()), true);
  // Same bytes, retyped claim: must fail verification...
  EXPECT_FALSE(open(keys, NodeId{1}, NodeId{2}, msg_type::kCommit,
                    BytesView(sealed.data(), sealed.size()), true)
                   .ok());
  // ...even though the body itself would decode fine as a Commit.
  ASSERT_TRUE(Commit::decode(BytesView(body.data(), body.size())).ok());
  // The genuine type still opens.
  EXPECT_TRUE(open(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare,
                   BytesView(sealed.data(), sealed.size()), true)
                  .ok());
}

TEST(Seal, OpenViewMatchesOpenWithoutCopying) {
  crypto::KeyRegistry keys(11);
  const Bytes body = {9, 9, 9, 1, 2};
  const Bytes sealed = seal(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare,
                            BytesView(body.data(), body.size()), true);
  const BytesView sealed_view(sealed.data(), sealed.size());
  const auto copied = open(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare, sealed_view, true);
  const auto viewed = open_view(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare, sealed_view, true);
  ASSERT_TRUE(copied.ok());
  ASSERT_TRUE(viewed.ok());
  EXPECT_EQ(Bytes(viewed.value().begin(), viewed.value().end()), copied.value());
  // The view aliases the sealed buffer — zero-copy, not a hidden clone.
  EXPECT_GE(viewed.value().data(), sealed.data());
  EXPECT_LE(viewed.value().data() + viewed.value().size(), sealed.data() + sealed.size());

  // Error cases must agree, too.
  Bytes tampered = sealed;
  tampered[1] ^= 1;
  const BytesView tampered_view(tampered.data(), tampered.size());
  const auto copied_err = open(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare, tampered_view, true);
  const auto viewed_err =
      open_view(keys, NodeId{1}, NodeId{2}, msg_type::kPrepare, tampered_view, true);
  ASSERT_FALSE(copied_err.ok());
  ASSERT_FALSE(viewed_err.ok());
  EXPECT_EQ(viewed_err.error(), copied_err.error());
}

}  // namespace
}  // namespace gpbft::pbft
