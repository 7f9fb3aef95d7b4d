// Micro-benchmarks: SHA-256, HMAC, Merkle trees, pairwise tags.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/authenticator.hpp"
#include "crypto/hmac.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"

namespace {

using namespace gpbft;
using namespace gpbft::crypto;

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(BytesView(data.data(), data.size())));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
// 33: a Merkle leaf; 65: a Merkle interior node; 112: a default
// transaction's encoding with its 32-byte payload.
BENCHMARK(BM_Sha256)->Arg(33)->Arg(64)->Arg(65)->Arg(112)->Arg(256)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hmac_sha256(BytesView(key.data(), key.size()), BytesView(data.data(), data.size())));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_MerkleBuild(benchmark::State& state) {
  std::vector<Hash256> leaves;
  for (int i = 0; i < state.range(0); ++i) leaves.push_back(sha256("leaf" + std::to_string(i)));
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.root());
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(8)->Arg(64)->Arg(512);

void BM_MerkleProveVerify(benchmark::State& state) {
  std::vector<Hash256> leaves;
  for (int i = 0; i < state.range(0); ++i) leaves.push_back(sha256("leaf" + std::to_string(i)));
  const MerkleTree tree(leaves);
  std::size_t index = 0;
  for (auto _ : state) {
    const MerkleProof proof = tree.prove(index % leaves.size());
    benchmark::DoNotOptimize(
        MerkleTree::verify(leaves[index % leaves.size()], proof, tree.root()));
    ++index;
  }
}
BENCHMARK(BM_MerkleProveVerify)->Arg(64)->Arg(512);

// One iteration tags a 128-byte payload for range(0) receivers, one tag()
// call each: the work a broadcast's seal loop does. With range(1) = 0,
// sender 1 seals for nodes 2.. and the few sessions involved derive on the
// first pass. With range(1) = n, every link among nodes 1..n is cached
// before timing (one tag each) and the sender rotates over 1..n, so each
// tag looks up a session in a workload-sized cache: gpbft-n202-macs ends
// with 15,340 cached sessions, and n = 176 gives 15,400.
void BM_AuthenticatorTag(benchmark::State& state) {
  const KeyRegistry keys(1);
  const Bytes payload(128, 0x33);
  const auto fanout = static_cast<std::uint64_t>(state.range(0));
  const auto nodes = static_cast<std::uint64_t>(state.range(1));
  std::vector<std::vector<NodeId>> receivers;  // receivers[s]: sender s + 1's
  if (nodes == 0) {
    receivers.emplace_back();
    for (std::uint64_t i = 2; i < 2 + fanout; ++i) receivers[0].push_back(NodeId{i});
  } else {
    for (std::uint64_t a = 1; a <= nodes; ++a) {
      for (std::uint64_t b = a + 1; b <= nodes; ++b) {
        benchmark::DoNotOptimize(keys.tag(NodeId{a}, NodeId{b}, {}));
      }
      receivers.emplace_back();
      for (std::uint64_t k = 1; k <= fanout; ++k) {
        receivers.back().push_back(NodeId{(a - 1 + k) % nodes + 1});
      }
    }
  }
  const std::array<BytesView, 1> parts{BytesView(payload.data(), payload.size())};
  std::size_t sender = 0;
  for (auto _ : state) {
    for (const NodeId receiver : receivers[sender]) {
      benchmark::DoNotOptimize(keys.tag(NodeId{sender + 1}, receiver, parts));
    }
    if (++sender == receivers.size()) sender = 0;
  }
}
BENCHMARK(BM_AuthenticatorTag)->Args({1, 0})->Args({40, 0})->Args({200, 0})->Args({40, 176});

}  // namespace

int main(int argc, char** argv) {
  // Which compression kernel produced the numbers: a table from a host
  // without SHA extensions must not be read against one from a host with.
  benchmark::AddCustomContext("sha256_kernel", gpbft::crypto::sha256_kernel());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
