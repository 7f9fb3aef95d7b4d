#include "ledger/store.hpp"

#include <algorithm>
#include <cstdio>

#include "crypto/sha256.hpp"
#include "serde/reader.hpp"
#include "serde/writer.hpp"

namespace gpbft::ledger {

namespace {
constexpr ImageFormat kChainImage{"GPBFTCHN", kChainFileVersion, "chain file"};

std::string image_error(const ImageFormat& format, const std::string& what) {
  return std::string(format.label) + ": " + what;
}
}  // namespace

Bytes write_image(const ImageFormat& format, std::size_t count,
                  const std::function<Bytes(std::size_t)>& encode_block) {
  serde::Writer w;
  w.raw(BytesView(reinterpret_cast<const std::uint8_t*>(format.magic.data()),
                  format.magic.size()));
  w.u32(format.version);
  w.varint(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Bytes block = encode_block(i);
    w.bytes(BytesView(block.data(), block.size()));
  }
  const crypto::Hash256 digest =
      crypto::sha256(BytesView(w.buffer().data(), w.buffer().size()));
  w.raw(digest.view());
  return w.take();
}

Result<std::vector<BytesView>> read_image(const ImageFormat& format, BytesView image) {
  if (image.size() < format.magic.size() + 4 + 32) {
    return make_error(image_error(format, "truncated"));
  }

  // Integrity tail first: sha256 over everything before the final 32 bytes.
  const BytesView body(image.data(), image.size() - 32);
  const crypto::Hash256 expected = crypto::sha256(body);
  crypto::Hash256 stored;
  std::copy(image.end() - 32, image.end(), stored.bytes.begin());
  if (expected != stored) return make_error(image_error(format, "integrity check failed"));

  serde::Reader r(body);
  auto magic = r.raw(format.magic.size());
  if (!magic) return make_error(magic.error());
  if (std::string_view(reinterpret_cast<const char*>(magic.value().data()),
                       magic.value().size()) != format.magic) {
    return make_error(image_error(format, "bad magic"));
  }
  auto version = r.u32();
  if (!version) return make_error(version.error());
  if (version.value() != format.version) {
    return make_error(
        image_error(format, "unsupported version " + std::to_string(version.value())));
  }

  auto count = r.varint();
  if (!count) return make_error(count.error());
  if (count.value() == 0) return make_error(image_error(format, "no blocks"));
  // Every block costs at least its one-byte length prefix, so a larger
  // count is a lie; refuse it before reserving room for it.
  if (count.value() > r.remaining()) {
    return make_error(image_error(format, "block count exceeds the image"));
  }

  std::vector<BytesView> blocks;
  blocks.reserve(count.value());
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto block = r.bytes_view();
    if (!block) return make_error(block.error());
    blocks.push_back(block.value());
  }
  if (!r.exhausted()) return make_error(image_error(format, "trailing bytes"));
  return blocks;
}

Bytes serialize_chain(const Chain& chain) {
  return write_image(kChainImage, chain.size(),
                     [&chain](std::size_t height) { return chain.at(height).encode(); });
}

Result<Chain> deserialize_chain(BytesView image) {
  auto encoded = read_image(kChainImage, image);
  if (!encoded) return make_error(encoded.error());
  const std::vector<BytesView>& blocks = encoded.value();

  auto genesis = Block::decode(blocks.front());
  if (!genesis) return make_error(genesis.error());
  if (genesis.value().header.height != 0) {
    return make_error(image_error(kChainImage, "genesis height != 0"));
  }

  Chain chain(std::move(genesis.value()));
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    auto block = Block::decode(blocks[i]);
    if (!block) return make_error(block.error());
    if (auto appended = chain.append(std::move(block.value())); !appended) {
      return make_error(image_error(kChainImage, "block " + std::to_string(i) +
                                                     " failed validation: " + appended.error()));
    }
  }
  return chain;
}

Result<void> save_chain(const Chain& chain, const std::string& path) {
  const Bytes image = serialize_chain(chain);
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return make_error("chain file: cannot open " + tmp);
  const std::size_t written = std::fwrite(image.data(), 1, image.size(), file);
  const bool flushed = std::fclose(file) == 0;
  if (written != image.size() || !flushed) {
    std::remove(tmp.c_str());
    return make_error("chain file: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return make_error("chain file: rename to " + path + " failed");
  }
  return {};
}

Result<Chain> load_chain(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return make_error("chain file: cannot open " + path);
  // Read to EOF rather than size the buffer with fseek/ftell: fopen also
  // opens a directory, for which ftell reports a meaningless ~2^63 size,
  // while fread fails cleanly.
  Bytes image;
  std::uint8_t chunk[64 * 1024] = {};
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    image.insert(image.end(), chunk, chunk + got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return make_error("chain file: cannot read " + path);
  return deserialize_chain(BytesView(image.data(), image.size()));
}

}  // namespace gpbft::ledger
