#include "fuzz/targets.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "crypto/authenticator.hpp"
#include "crypto/sha256.hpp"
#include "ledger/block.hpp"
#include "ledger/store.hpp"
#include "ledger/transaction.hpp"
#include "pbft/messages.hpp"
#include "pow/pow_chain.hpp"
#include "serde/reader.hpp"
#include "sim/scenario.hpp"

namespace gpbft::fuzz {
namespace {

[[noreturn]] void oracle_failure(const char* target, const char* what) {
  std::fprintf(stderr, "fuzz oracle violation [%s]: %s\n", target, what);
  std::abort();
}

/// Totality + round-trip oracle over a `static Result<T> decode(BytesView)`
/// / `Bytes encode() const` codec. Rejection is a clean outcome; acceptance
/// obligates encode ∘ decode to be a fixed point.
template <typename T>
bool roundtrip(const char* name, BytesView data) {
  auto first = T::decode(data);
  if (!first.ok()) return false;
  const Bytes once = first.value().encode();
  auto second = T::decode(BytesView(once.data(), once.size()));
  if (!second.ok()) oracle_failure(name, "re-decode of an accepted value failed");
  const Bytes twice = second.value().encode();
  if (twice != once) oracle_failure(name, "encode is not a fixed point after decode");
  return true;
}

// --- shared seed material ---------------------------------------------------

geo::GeoReport seed_geo() {
  return geo::GeoReport{geo::GeoPoint{12.5, -33.25}, TimePoint{3'000'000'000}};
}

ledger::Transaction seed_tx() {
  return ledger::make_normal_tx(NodeId{7}, 11, Bytes{0xde, 0xad, 0xbe, 0xef}, 10, seed_geo());
}

ledger::Block seed_block() {
  ledger::BlockHeader genesis;  // height 0, zero hashes
  return ledger::build_block(genesis, {seed_tx()}, /*era=*/1, /*view=*/0, /*seq=*/1,
                             TimePoint{2'000'000'000}, /*producer=*/NodeId{1});
}

pow::PowBlock seed_pow_block() {
  pow::PowBlock block;
  block.transactions = {seed_tx()};
  block.header.height = 1;
  block.header.difficulty = 16;
  block.header.nonce = 42;
  block.header.timestamp = TimePoint{2'000'000'000};
  block.header.miner = NodeId{3};
  block.header.merkle_root = block.compute_merkle_root();
  return block;
}

pbft::PrePrepare seed_preprepare() {
  pbft::PrePrepare msg;
  msg.view = 1;
  msg.seq = 2;
  msg.block = seed_block();
  msg.digest = msg.block.hash();
  return msg;
}

pbft::ViewChangeMsg seed_view_change() {
  pbft::ViewChangeMsg msg;
  msg.new_view = 2;
  msg.last_executed = 1;
  pbft::PreparedProof proof;
  proof.view = 1;
  proof.seq = 2;
  proof.block = seed_block();
  proof.digest = proof.block.hash();
  msg.prepared = {proof};
  msg.replica = NodeId{3};
  return msg;
}

// --- cross-cutting targets --------------------------------------------------

/// Drives the serde Reader primitives directly: each input byte selects the
/// next read operation, so the fuzzer explores interleavings of varints,
/// length-prefixed fields and fixed-width reads against a shared cursor.
/// The oracle here is pure totality (no round-trip — the walk is lossy).
bool run_serde_walk(BytesView data) {
  serde::Reader reader(data);
  bool any_ok = false;
  for (int step = 0; step < 4096 && !reader.exhausted(); ++step) {
    auto op = reader.u8();
    if (!op.ok()) break;
    bool ok = false;
    switch (op.value() % 11) {
      case 0: ok = reader.u8().ok(); break;
      case 1: ok = reader.u16().ok(); break;
      case 2: ok = reader.u32().ok(); break;
      case 3: ok = reader.u64().ok(); break;
      case 4: ok = reader.i64().ok(); break;
      case 5: ok = reader.f64().ok(); break;
      case 6: ok = reader.boolean().ok(); break;
      case 7: ok = reader.varint().ok(); break;
      case 8: {
        auto len = reader.u8();
        ok = len.ok() && reader.raw(len.value()).ok();
        break;
      }
      case 9: ok = reader.bytes().ok(); break;
      case 10: ok = reader.string().ok(); break;
    }
    any_ok = any_ok || ok;
  }
  return any_ok;
}

Bytes seed_serde_walk() {
  // One of each op family with a plausible operand following it.
  return Bytes{
      0,  0x41,                                            // u8
      1,  0x01, 0x02,                                      // u16
      7,  0xac, 0x02,                                      // varint (300)
      8,  0x03, 0xaa, 0xbb, 0xcc,                          // raw(3)
      10, 0x02, 'h',  'i',                                 // string (varint len 2)
      3,  0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,  // u64
  };
}

/// Fuzzes the MAC framing (pbft::seal / pbft::open_view). Input framing:
/// byte 0 = message type, byte 1 bit 0 = compute_macs, rest = sealed
/// payload. On accept, re-seal must re-open to the same body — and with
/// MACs on, re-sealing must reproduce the input bytes exactly (the HMAC is
/// deterministic).
bool run_seal(BytesView data) {
  static const crypto::KeyRegistry keys(0x5eed);
  if (data.size() < 2) return false;
  const auto type = static_cast<net::MessageType>(data[0]);
  const bool macs = (data[1] & 1) != 0;
  const BytesView sealed = data.subspan(2);
  auto opened =
      pbft::open_view(keys, /*sender=*/NodeId{1}, /*receiver=*/NodeId{2}, type, sealed, macs);
  if (!opened.ok()) return false;
  const BytesView body = opened.value();
  const Bytes resealed = pbft::seal(keys, NodeId{1}, NodeId{2}, type, body, macs);
  if (macs && (resealed.size() != sealed.size() ||
               !std::equal(resealed.begin(), resealed.end(), sealed.begin()))) {
    oracle_failure("seal", "re-seal with MACs is not a fixed point");
  }
  auto reopened = pbft::open_view(keys, NodeId{1}, NodeId{2}, type,
                                  BytesView(resealed.data(), resealed.size()), macs);
  if (!reopened.ok()) oracle_failure("seal", "re-open of a re-sealed body failed");
  if (!std::equal(reopened.value().begin(), reopened.value().end(), body.begin(), body.end())) {
    oracle_failure("seal", "re-opened body differs");
  }
  return true;
}

Bytes seed_seal() {
  static const crypto::KeyRegistry keys(0x5eed);
  pbft::Prepare msg;
  msg.view = 1;
  msg.seq = 2;
  msg.replica = NodeId{1};
  const Bytes body = msg.encode();
  const Bytes sealed = pbft::seal(keys, NodeId{1}, NodeId{2}, pbft::msg_type::kPrepare,
                                  BytesView(body.data(), body.size()), /*compute_macs=*/true);
  Bytes out;
  out.reserve(2 + sealed.size());
  out.push_back(static_cast<std::uint8_t>(pbft::msg_type::kPrepare));
  out.push_back(0x01);
  out.insert(out.end(), sealed.begin(), sealed.end());
  return out;
}

/// Fuzzes the chain-image decoder fed from files and faulted disks
/// (ledger::deserialize_chain). The input is an image without its SHA-256
/// integrity tail; the target appends a fresh one, so mutations reach the
/// framing and block decode instead of stopping at the integrity check. On
/// accept, serialize ∘ deserialize must be a fixed point.
bool run_chain_image(BytesView data) {
  Bytes image(data.begin(), data.end());
  const crypto::Hash256 tail = crypto::sha256(data);
  image.insert(image.end(), tail.bytes.begin(), tail.bytes.end());
  auto first = ledger::deserialize_chain(BytesView(image.data(), image.size()));
  if (!first.ok()) return false;
  const Bytes once = ledger::serialize_chain(first.value());
  auto second = ledger::deserialize_chain(BytesView(once.data(), once.size()));
  if (!second.ok()) oracle_failure("chain_image", "re-decode of an accepted image failed");
  if (ledger::serialize_chain(second.value()) != once) {
    oracle_failure("chain_image", "serialize is not a fixed point after deserialize");
  }
  return true;
}

Bytes seed_chain_image() {
  ledger::Block genesis;  // height 0 over an empty body
  genesis.header.merkle_root = genesis.compute_merkle_root();
  ledger::Chain chain(genesis);
  (void)chain.append(ledger::build_block(genesis.header, {seed_tx()}, /*era=*/0, /*view=*/0,
                                         /*seq=*/1, TimePoint{2'000'000'000},
                                         /*producer=*/NodeId{1}));
  Bytes image = ledger::serialize_chain(chain);
  image.resize(image.size() - 32);  // the target appends the integrity tail
  return image;
}

/// Fuzzes the strict scenario parser. On accept, print ∘ parse must be a
/// fixed point (the format guarantees parse(print(spec)) == spec).
bool run_scenario(BytesView data) {
  auto spec = sim::parse_scenario(to_string(data));
  if (!spec.ok()) return false;
  const std::string printed = sim::print_scenario(spec.value());
  auto reparsed = sim::parse_scenario(printed);
  if (!reparsed.ok()) oracle_failure("scenario", "re-parse of a printed spec failed");
  if (sim::print_scenario(reparsed.value()) != printed) {
    oracle_failure("scenario", "print is not a fixed point after parse");
  }
  return true;
}

Bytes seed_scenario() { return to_bytes(sim::print_scenario(sim::ScenarioSpec{})); }

// --- registry ---------------------------------------------------------------

template <typename T>
bool run_codec(BytesView data);
#define GPBFT_FUZZ_CODEC(tag, type)                                             \
  template <>                                                                   \
  bool run_codec<type>(BytesView data) {                                        \
    return roundtrip<type>(tag, data);                                          \
  }

GPBFT_FUZZ_CODEC("transaction", ledger::Transaction)
GPBFT_FUZZ_CODEC("block_header", ledger::BlockHeader)
GPBFT_FUZZ_CODEC("block", ledger::Block)
GPBFT_FUZZ_CODEC("pow_block_header", pow::PowBlockHeader)
GPBFT_FUZZ_CODEC("pow_block", pow::PowBlock)
GPBFT_FUZZ_CODEC("client_request", pbft::ClientRequest)
GPBFT_FUZZ_CODEC("preprepare", pbft::PrePrepare)
GPBFT_FUZZ_CODEC("prepare", pbft::Prepare)
GPBFT_FUZZ_CODEC("commit", pbft::Commit)
GPBFT_FUZZ_CODEC("reply", pbft::Reply)
GPBFT_FUZZ_CODEC("checkpoint", pbft::CheckpointMsg)
GPBFT_FUZZ_CODEC("view_change", pbft::ViewChangeMsg)
GPBFT_FUZZ_CODEC("new_view", pbft::NewViewMsg)
GPBFT_FUZZ_CODEC("sync_request", pbft::SyncRequest)
GPBFT_FUZZ_CODEC("sync_response", pbft::SyncResponse)
GPBFT_FUZZ_CODEC("geo_report", pbft::GeoReportMsg)
GPBFT_FUZZ_CODEC("era_halt", pbft::EraHaltMsg)
GPBFT_FUZZ_CODEC("era_launch", pbft::EraLaunchMsg)
#undef GPBFT_FUZZ_CODEC

std::vector<FuzzTarget> build_targets() {
  return {
      {"serde_walk", run_serde_walk, seed_serde_walk},
      {"transaction", run_codec<ledger::Transaction>, [] { return seed_tx().encode(); }},
      {"block_header", run_codec<ledger::BlockHeader>,
       [] { return seed_block().header.encode(); }},
      {"block", run_codec<ledger::Block>, [] { return seed_block().encode(); }},
      {"pow_block_header", run_codec<pow::PowBlockHeader>,
       [] { return seed_pow_block().header.encode(); }},
      {"pow_block", run_codec<pow::PowBlock>, [] { return seed_pow_block().encode(); }},
      {"client_request", run_codec<pbft::ClientRequest>,
       [] { return pbft::ClientRequest{seed_tx()}.encode(); }},
      {"preprepare", run_codec<pbft::PrePrepare>, [] { return seed_preprepare().encode(); }},
      {"prepare", run_codec<pbft::Prepare>,
       [] {
         pbft::Prepare msg;
         msg.view = 1;
         msg.seq = 2;
         msg.digest = seed_block().hash();
         msg.replica = NodeId{3};
         return msg.encode();
       }},
      {"commit", run_codec<pbft::Commit>,
       [] {
         pbft::Commit msg;
         msg.view = 1;
         msg.seq = 2;
         msg.digest = seed_block().hash();
         msg.replica = NodeId{3};
         return msg.encode();
       }},
      {"reply", run_codec<pbft::Reply>,
       [] {
         pbft::Reply msg;
         msg.view = 1;
         msg.replica = NodeId{2};
         msg.tx_digest = seed_tx().digest();
         msg.height = 1;
         return msg.encode();
       }},
      {"checkpoint", run_codec<pbft::CheckpointMsg>,
       [] {
         pbft::CheckpointMsg msg;
         msg.seq = 16;
         msg.chain_digest = seed_block().hash();
         msg.replica = NodeId{2};
         return msg.encode();
       }},
      {"view_change", run_codec<pbft::ViewChangeMsg>,
       [] { return seed_view_change().encode(); }},
      {"new_view", run_codec<pbft::NewViewMsg>,
       [] {
         pbft::NewViewMsg msg;
         msg.new_view = 2;
         msg.proofs = {seed_view_change()};
         msg.preprepares = {seed_preprepare()};
         msg.primary = NodeId{2};
         return msg.encode();
       }},
      {"sync_request", run_codec<pbft::SyncRequest>,
       [] {
         pbft::SyncRequest msg;
         msg.from_height = 3;
         msg.requester = NodeId{4};
         return msg.encode();
       }},
      {"sync_response", run_codec<pbft::SyncResponse>,
       [] {
         pbft::SyncResponse msg;
         msg.blocks = {seed_block()};
         msg.responder = NodeId{2};
         return msg.encode();
       }},
      {"geo_report", run_codec<pbft::GeoReportMsg>,
       [] {
         pbft::GeoReportMsg msg;
         msg.device = NodeId{9};
         msg.latitude = 12.5;
         msg.longitude = -33.25;
         msg.reported_at = TimePoint{3'000'000'000};
         return msg.encode();
       }},
      {"era_halt", run_codec<pbft::EraHaltMsg>,
       [] {
         pbft::EraHaltMsg msg;
         msg.closing_era = 1;
         msg.sender = NodeId{2};
         return msg.encode();
       }},
      {"era_launch", run_codec<pbft::EraLaunchMsg>,
       [] {
         pbft::EraLaunchMsg msg;
         msg.config.era = 2;
         msg.config.endorsers = {NodeId{1}, NodeId{2}, NodeId{3}};
         msg.config.cells = {"u4pruyd", "u4pruyf", "u4pruyc"};
         msg.config_height = 5;
         msg.sender = NodeId{1};
         msg.blocks = {seed_block()};
         return msg.encode();
       }},
      {"chain_image", run_chain_image, seed_chain_image},
      {"seal", run_seal, seed_seal},
      {"scenario", run_scenario, seed_scenario},
  };
}

}  // namespace

const std::vector<FuzzTarget>& targets() {
  static const std::vector<FuzzTarget> registry = build_targets();
  return registry;
}

const FuzzTarget* find_target(std::string_view name) {
  for (const auto& target : targets()) {
    if (name == target.name) return &target;
  }
  return nullptr;
}

}  // namespace gpbft::fuzz
