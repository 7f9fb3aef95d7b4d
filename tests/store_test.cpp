// Chain persistence tests: roundtrip, integrity tail, corruption detection,
// atomic save, and a restart-continuation scenario.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "ledger/genesis.hpp"
#include "ledger/store.hpp"

namespace gpbft::ledger {
namespace {

geo::GeoReport report_at(std::int64_t sec) {
  geo::GeoReport report;
  report.point = geo::GeoPoint{22.39, 114.10};
  report.timestamp = TimePoint{Duration::seconds(sec).ns};
  return report;
}

Chain build_chain(std::size_t blocks) {
  GenesisConfig config;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    config.initial_endorsers.push_back(EndorserInfo{NodeId{i}, geo::GeoPoint{22.39, 114.1}});
  }
  Chain chain(make_genesis_block(config));
  for (std::size_t b = 1; b <= blocks; ++b) {
    std::vector<Transaction> txs;
    for (RequestId r = 0; r < 3; ++r) {
      txs.push_back(make_normal_tx(NodeId{10 + r}, b * 10 + r, Bytes{1, 2}, 5,
                                   report_at(static_cast<std::int64_t>(b))));
    }
    const Block block = build_block(chain.tip().header, std::move(txs), 0, 0, b,
                                    TimePoint{Duration::seconds(b).ns}, NodeId{1 + b % 4});
    EXPECT_TRUE(chain.append(block).ok());
  }
  return chain;
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(ChainStore, SerializeDeserializeRoundtrip) {
  const Chain chain = build_chain(10);
  const Bytes image = serialize_chain(chain);
  auto restored = deserialize_chain(BytesView(image.data(), image.size()));
  ASSERT_TRUE(restored.ok()) << restored.error();
  EXPECT_EQ(restored.value().height(), 10u);
  EXPECT_EQ(restored.value().tip().hash(), chain.tip().hash());
  EXPECT_EQ(restored.value().current_era_config().endorsers.size(), 4u);
}

TEST(ChainStore, GenesisOnlyChain) {
  const Chain chain = build_chain(0);
  const Bytes image = serialize_chain(chain);
  auto restored = deserialize_chain(BytesView(image.data(), image.size()));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().height(), 0u);
}

TEST(ChainStore, DetectsBitFlipAnywhere) {
  const Chain chain = build_chain(3);
  const Bytes image = serialize_chain(chain);
  // Flip a byte at several positions including header, body and tail.
  for (const std::size_t pos :
       {std::size_t{0}, std::size_t{9}, image.size() / 2, image.size() - 1}) {
    Bytes corrupted = image;
    corrupted[pos] ^= 0x01;
    EXPECT_FALSE(deserialize_chain(BytesView(corrupted.data(), corrupted.size())).ok())
        << "flip at " << pos;
  }
}

TEST(ChainStore, DetectsTruncation) {
  const Chain chain = build_chain(3);
  const Bytes image = serialize_chain(chain);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{10}, image.size() - 1}) {
    EXPECT_FALSE(deserialize_chain(BytesView(image.data(), keep)).ok()) << "keep " << keep;
  }
}

TEST(ChainStore, RejectsWrongVersionAndMagic) {
  const Chain chain = build_chain(1);
  Bytes image = serialize_chain(chain);
  // Bad magic (recompute of the tail is deliberately NOT done: the
  // integrity check fires first, which is also correct behaviour).
  Bytes bad_magic = image;
  bad_magic[0] = 'X';
  EXPECT_FALSE(deserialize_chain(BytesView(bad_magic.data(), bad_magic.size())).ok());
}

TEST(ChainStore, SaveLoadFile) {
  const Chain chain = build_chain(5);
  const std::string path = temp_path("chain_roundtrip.bin");
  ASSERT_TRUE(save_chain(chain, path).ok());
  auto restored = load_chain(path);
  ASSERT_TRUE(restored.ok()) << restored.error();
  EXPECT_EQ(restored.value().tip().hash(), chain.tip().hash());
  std::remove(path.c_str());
}

TEST(ChainStore, LoadMissingFileErrors) {
  EXPECT_FALSE(load_chain(temp_path("does_not_exist.bin")).ok());
}

TEST(ChainStore, LoadDirectoryErrors) {
  // fopen succeeds on a directory; loading it must still be a clean error.
  const auto loaded = load_chain(::testing::TempDir());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("cannot read"), std::string::npos) << loaded.error();
}

TEST(ChainStore, TornWriteLeavesThePreviousFileIntact) {
  const Chain original = build_chain(4);
  const std::string path = temp_path("chain_torn.bin");
  ASSERT_TRUE(save_chain(original, path).ok());

  // Power loss mid-save: the next image only made it partway into the temp
  // file and the rename never happened. The durable copy is untouched.
  const Chain longer = build_chain(8);
  const Bytes next = serialize_chain(longer);
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fwrite(next.data(), 1, next.size() / 2, file);
  std::fclose(file);

  auto loaded = load_chain(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value().tip().hash(), original.tip().hash());

  // And had the torn image reached the durable name, the integrity tail
  // rejects it at load time instead of yielding a half-written chain.
  ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
  EXPECT_FALSE(load_chain(path).ok());
  std::remove(path.c_str());
}

TEST(ChainStore, RestartContinuation) {
  // Save, reload, and keep appending on the restored chain — the resumed
  // node validates new blocks against the persisted tip.
  Chain original = build_chain(4);
  const std::string path = temp_path("chain_restart.bin");
  ASSERT_TRUE(save_chain(original, path).ok());

  auto resumed = load_chain(path);
  ASSERT_TRUE(resumed.ok());
  const Block next =
      build_block(resumed.value().tip().header,
                  {make_normal_tx(NodeId{9}, 99, Bytes{7}, 5, report_at(100))}, 0, 0, 5,
                  TimePoint{Duration::seconds(100).ns}, NodeId{2});
  EXPECT_TRUE(resumed.value().append(next).ok());
  EXPECT_EQ(resumed.value().height(), 5u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gpbft::ledger
