#include "pow/pow_store.hpp"

#include "ledger/store.hpp"

namespace gpbft::pow {

namespace {
constexpr ledger::ImageFormat kPowImage{"GPBFTPOW", kPowChainFileVersion, "pow chain file"};
}  // namespace

Bytes serialize_pow_chain(const PowChain& chain) {
  const std::vector<PowBlock> best = chain.best_chain();
  return ledger::write_image(kPowImage, best.size(),
                             [&best](std::size_t i) { return best[i].encode(); });
}

Result<std::vector<PowBlock>> deserialize_pow_chain(BytesView image) {
  auto encoded = ledger::read_image(kPowImage, image);
  if (!encoded) return make_error(encoded.error());

  std::vector<PowBlock> blocks;
  blocks.reserve(encoded.value().size());
  for (const BytesView bytes : encoded.value()) {
    auto block = PowBlock::decode(bytes);
    if (!block) return make_error(block.error());
    blocks.push_back(std::move(block.value()));
  }
  if (blocks.front().header.height != 0) return make_error("pow chain file: genesis height != 0");
  return blocks;
}

}  // namespace gpbft::pow
