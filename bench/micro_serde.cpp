// Micro-benchmarks: the serde codec and whole-message encode/decode.
#include <benchmark/benchmark.h>

#include "ledger/chain.hpp"
#include "ledger/genesis.hpp"
#include "pbft/messages.hpp"
#include "serde/reader.hpp"
#include "serde/writer.hpp"

namespace {

using namespace gpbft;

void BM_WriterMixed(benchmark::State& state) {
  for (auto _ : state) {
    serde::Writer w;
    for (int i = 0; i < 32; ++i) {
      w.u64(static_cast<std::uint64_t>(i));
      w.varint(static_cast<std::uint64_t>(i) * 1234567);
      w.string("field");
    }
    benchmark::DoNotOptimize(w.buffer());
  }
}
BENCHMARK(BM_WriterMixed);

void BM_ReaderMixed(benchmark::State& state) {
  serde::Writer w;
  for (int i = 0; i < 32; ++i) {
    w.u64(static_cast<std::uint64_t>(i));
    w.varint(static_cast<std::uint64_t>(i) * 1234567);
    w.string("field");
  }
  const Bytes data = w.take();
  for (auto _ : state) {
    serde::Reader r(BytesView(data.data(), data.size()));
    for (int i = 0; i < 32; ++i) {
      benchmark::DoNotOptimize(r.u64());
      benchmark::DoNotOptimize(r.varint());
      benchmark::DoNotOptimize(r.string());
    }
  }
}
BENCHMARK(BM_ReaderMixed);

ledger::Block sample_block(std::size_t txs) {
  ledger::GenesisConfig config;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    config.initial_endorsers.push_back(
        ledger::EndorserInfo{NodeId{i}, geo::GeoPoint{22.39, 114.1}});
  }
  const ledger::Block genesis = ledger::make_genesis_block(config);
  std::vector<ledger::Transaction> batch;
  geo::GeoReport report;
  report.point = geo::GeoPoint{22.39, 114.1};
  for (std::size_t i = 0; i < txs; ++i) {
    batch.push_back(ledger::make_normal_tx(NodeId{10 + i}, i, Bytes(32, 0x5a), 10, report));
  }
  return ledger::build_block(genesis.header, std::move(batch), 0, 0, 1, TimePoint{1}, NodeId{1});
}

void BM_BlockEncode(benchmark::State& state) {
  const ledger::Block block = sample_block(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.encode());
  }
}
BENCHMARK(BM_BlockEncode)->Arg(1)->Arg(32);

// A 112-byte workload transaction: encode plus SHA-256.
void BM_TransactionDigest(benchmark::State& state) {
  const ledger::Transaction tx = sample_block(1).transactions.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx.digest());
  }
}
BENCHMARK(BM_TransactionDigest);

// One block appended to a fresh chain whose genesis carries no transactions,
// so the chain's construction hashes nothing. The plain path copies and
// checks the block; the checked path shares a block whose body was checked
// before the loop, as a replica's execute does.
ledger::Block empty_genesis() {
  ledger::Block genesis;
  genesis.header.merkle_root = genesis.compute_merkle_root();
  return genesis;
}

ledger::Block block_on(const ledger::Block& genesis, std::size_t txs) {
  ledger::Block block = sample_block(txs);
  return ledger::build_block(genesis.header, std::move(block.transactions), 0, 0, 1,
                             TimePoint{1}, NodeId{1});
}

void BM_ChainAppend(benchmark::State& state) {
  const ledger::Block genesis = empty_genesis();
  const ledger::Block block = block_on(genesis, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ledger::Chain chain(genesis);
    benchmark::DoNotOptimize(chain.append(block).ok());
  }
}
BENCHMARK(BM_ChainAppend)->Arg(1)->Arg(32);

void BM_ChainAppendChecked(benchmark::State& state) {
  const ledger::Block genesis = empty_genesis();
  const auto checked =
      ledger::CheckedBlock::check(block_on(genesis, static_cast<std::size_t>(state.range(0))));
  if (!checked) {
    state.SkipWithError(checked.error().c_str());
    return;
  }
  for (auto _ : state) {
    ledger::Chain chain(genesis);
    benchmark::DoNotOptimize(chain.append(checked.value()).ok());
  }
}
BENCHMARK(BM_ChainAppendChecked)->Arg(1)->Arg(32);

void BM_BlockDecode(benchmark::State& state) {
  const Bytes encoded = sample_block(static_cast<std::size_t>(state.range(0))).encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ledger::Block::decode(BytesView(encoded.data(), encoded.size())));
  }
}
BENCHMARK(BM_BlockDecode)->Arg(1)->Arg(32);

void BM_SealOpen(benchmark::State& state) {
  const crypto::KeyRegistry keys(1);
  const Bytes body(100, 0x44);
  for (auto _ : state) {
    const Bytes sealed = pbft::seal(keys, NodeId{1}, NodeId{2}, pbft::msg_type::kPrepare,
                                    BytesView(body.data(), body.size()), true);
    benchmark::DoNotOptimize(pbft::open_view(keys, NodeId{1}, NodeId{2},
                                             pbft::msg_type::kPrepare,
                                             BytesView(sealed.data(), sealed.size()), true));
  }
}
BENCHMARK(BM_SealOpen);

}  // namespace
