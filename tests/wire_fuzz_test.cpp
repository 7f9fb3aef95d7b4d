// Wire-decode fuzz suite: replays the checked-in malformed corpus through
// the fuzz::FuzzTarget registry (the same registry the gpbft_fuzz driver
// uses) and runs a deterministic mutation sweep per target.
//
// Every target's run() carries its own oracle — totality plus
// encode∘decode fixed-point on accepted inputs — so a decoder defect
// surfaces as an abort or sanitizer report here, not as a silent pass. The
// assertions below add the golden-rejection layer: the valid seed input
// must be accepted, the malformed corpus entries must be rejected, and the
// sweep must be reproducible bit-for-bit.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fuzz/targets.hpp"

namespace gpbft::fuzz {
namespace {

namespace fs = std::filesystem;

fs::path corpus_root() { return fs::path(GPBFT_SOURCE_DIR) / "fuzz" / "corpus"; }

Bytes read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TEST(WireFuzz, RegistryCoversEveryMessageCodec) {
  // One target per wire codec; a new message type must land here too.
  const std::vector<std::string> expected = {
      "serde_walk", "transaction",   "block_header", "block",      "pow_block_header",
      "pow_block",  "client_request", "preprepare",  "prepare",    "commit",
      "reply",      "checkpoint",    "view_change",  "new_view",   "sync_request",
      "sync_response", "geo_report", "era_halt",     "era_launch", "chain_image",
      "seal",       "scenario"};
  EXPECT_EQ(targets().size(), expected.size());
  for (const auto& name : expected) {
    EXPECT_NE(find_target(name), nullptr) << "missing fuzz target " << name;
  }
  EXPECT_EQ(find_target("no-such-target"), nullptr);
}

TEST(WireFuzz, SeedInputsAreAccepted) {
  for (const auto& target : targets()) {
    const Bytes seed = target.seed();
    EXPECT_TRUE(target.run(BytesView(seed.data(), seed.size())))
        << target.name << ": its own valid seed was rejected";
  }
}

TEST(WireFuzz, CorpusReplayGoldenRejections) {
  // The corpus is generated by `gpbft_fuzz corpus fuzz/corpus` and checked
  // in; every target owns a directory. 000_valid.bin must decode, the
  // empty input must be rejected by every decoder (only the scenario
  // parser accepts it — an empty spec is all defaults), and every other
  // entry must at least be survived (the run itself is the oracle).
  ASSERT_TRUE(fs::is_directory(corpus_root()))
      << corpus_root() << " missing — regenerate with `gpbft_fuzz corpus fuzz/corpus`";
  for (const auto& target : targets()) {
    const fs::path dir = corpus_root() / target.name;
    ASSERT_TRUE(fs::is_directory(dir)) << "no corpus for target " << target.name;
    std::size_t files = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const Bytes data = read_file(entry.path());
      const bool accepted = target.run(BytesView(data.data(), data.size()));
      const std::string file = entry.path().filename().string();
      if (file == "000_valid.bin") {
        EXPECT_TRUE(accepted) << target.name << "/" << file;
      } else if (file == "001_empty.bin" && std::string(target.name) != "scenario") {
        EXPECT_FALSE(accepted) << target.name << "/" << file;
      }
      ++files;
    }
    EXPECT_GE(files, 10u) << target.name << ": corpus looks truncated";
  }
}

TEST(WireFuzz, TruncationNeverAccepted) {
  // Chopping any suffix off a valid encoding must be rejected by the
  // message codecs — no decoder may silently zero-fill missing fields.
  // (serde_walk and scenario are op-stream / text targets where a prefix
  // can legitimately still parse, so they are exempt.)
  for (const auto& target : targets()) {
    const std::string name = target.name;
    if (name == "serde_walk" || name == "scenario") continue;
    const Bytes seed = target.seed();
    for (std::size_t cut = 1; cut <= seed.size(); cut += 7) {
      EXPECT_FALSE(target.run(BytesView(seed.data(), seed.size() - cut)))
          << name << ": accepted a seed truncated by " << cut << " bytes";
    }
  }
}

TEST(WireFuzz, DeterministicMutationSweep) {
  // A seeded bit-flip sweep over every target: the sweep must be
  // crash-free (totality) and reproducible (same seed, same accept/reject
  // pattern) — the property the CI sanitizer leg relies on when it replays
  // `gpbft_fuzz mutate` failures locally.
  auto sweep = [](std::uint64_t seed) {
    std::vector<int> accepted;
    for (const auto& target : targets()) {
      Rng rng(seed);
      const Bytes base = target.seed();
      int count = 0;
      for (int i = 0; i < 200; ++i) {
        Bytes input = base;
        const auto flips = rng.uniform(1, 6);
        for (std::uint64_t f = 0; f < flips && !input.empty(); ++f) {
          input[rng.uniform(0, input.size() - 1)] ^=
              static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
        }
        if (rng.chance(0.25) && !input.empty()) input.resize(rng.uniform(0, input.size() - 1));
        count += target.run(BytesView(input.data(), input.size())) ? 1 : 0;
      }
      accepted.push_back(count);
    }
    return accepted;
  };
  const auto first = sweep(0xF00D);
  EXPECT_EQ(first, sweep(0xF00D));
  EXPECT_NE(first, sweep(0xBEEF));
}

}  // namespace
}  // namespace gpbft::fuzz
