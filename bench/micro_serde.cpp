// Micro-benchmarks: the serde codec and whole-message encode/decode.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

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

// Chain::find_transaction on a chain of 32-transaction blocks indexing
// range(0) digests: 2,424 is gpbft-n202-macs' workload and 7,200 about the
// failover workload's. range(1) = 1 probes indexed digests, 0 digests the
// chain never saw: accept_request probes the index with every new request,
// so misses are common. The probes cycle through all of one kind.
void BM_ChainFindTransaction(benchmark::State& state) {
  const auto indexed = static_cast<std::size_t>(state.range(0));
  const bool hit = state.range(1) == 1;
  geo::GeoReport report;
  report.point = geo::GeoPoint{22.39, 114.1};
  const auto tx_at = [&report](std::size_t i) {
    return ledger::make_normal_tx(NodeId{10'000 + i % 202}, i, Bytes(32, 0x5a), 10, report);
  };
  ledger::Chain chain(empty_genesis());
  for (std::size_t first = 0; first < indexed; first += 32) {
    std::vector<ledger::Transaction> batch;
    for (std::size_t i = first; i < std::min(indexed, first + 32); ++i) batch.push_back(tx_at(i));
    const ledger::BlockHeader tip = chain.tip().header;
    if (auto appended = chain.append(ledger::build_block(tip, std::move(batch), 0, 0,
                                                         tip.height + 1, TimePoint{1}, NodeId{1}));
        !appended) {
      state.SkipWithError(appended.error().c_str());
      return;
    }
  }
  std::vector<crypto::Hash256> probes;
  for (std::size_t i = 0; i < indexed; ++i) probes.push_back(tx_at(hit ? i : indexed + i).digest());
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.find_transaction(probes[next]));
    if (++next == probes.size()) next = 0;
  }
}
BENCHMARK(BM_ChainFindTransaction)
    ->Args({2424, 1})
    ->Args({2424, 0})
    ->Args({7200, 1})
    ->Args({7200, 0});

void BM_BlockDecode(benchmark::State& state) {
  const Bytes encoded = sample_block(static_cast<std::size_t>(state.range(0))).encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ledger::Block::decode(BytesView(encoded.data(), encoded.size())));
  }
}
BENCHMARK(BM_BlockDecode)->Arg(1)->Arg(32);

// The bodies that carry the gated traffic. On the failover workload
// REQUEST is opened 148,310 times, PREPARE 162,894 and COMMIT 171,665
// (docs/performance.md); COMMIT has PREPARE's layout, and PRE-PREPARE
// carries a 32-transaction batch.
template <typename Msg>
Msg sample_message();

template <>
pbft::ClientRequest sample_message() {
  return {sample_block(1).transactions.front()};
}

template <>
pbft::Prepare sample_message() {
  pbft::Prepare msg;
  msg.view = 3;
  msg.seq = 41;
  msg.digest = sample_block(1).hash();
  msg.replica = NodeId{7};
  return msg;
}

template <>
pbft::Reply sample_message() {
  pbft::Reply msg;
  msg.view = 3;
  msg.replica = NodeId{7};
  msg.tx_digest = sample_block(1).transactions.front().digest();
  msg.height = 41;
  return msg;
}

template <>
pbft::PrePrepare sample_message() {
  pbft::PrePrepare msg;
  msg.view = 3;
  msg.seq = 41;
  msg.block = sample_block(32);
  msg.digest = msg.block.hash();
  return msg;
}

template <typename Msg>
void BM_MessageEncode(benchmark::State& state) {
  const Msg msg = sample_message<Msg>();
  for (auto _ : state) {
    const Bytes encoded = msg.encode();
    benchmark::DoNotOptimize(encoded.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_TEMPLATE(BM_MessageEncode, pbft::ClientRequest);
BENCHMARK_TEMPLATE(BM_MessageEncode, pbft::Prepare);
BENCHMARK_TEMPLATE(BM_MessageEncode, pbft::Reply);
BENCHMARK_TEMPLATE(BM_MessageEncode, pbft::PrePrepare);

template <typename Msg>
void BM_MessageDecode(benchmark::State& state) {
  const Bytes encoded = sample_message<Msg>().encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Msg::decode(BytesView(encoded.data(), encoded.size())));
  }
}
BENCHMARK_TEMPLATE(BM_MessageDecode, pbft::ClientRequest);
BENCHMARK_TEMPLATE(BM_MessageDecode, pbft::Prepare);
BENCHMARK_TEMPLATE(BM_MessageDecode, pbft::Reply);
BENCHMARK_TEMPLATE(BM_MessageDecode, pbft::PrePrepare);

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
