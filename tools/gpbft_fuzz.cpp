// Deterministic protocol-fuzzer driver over the fuzz::FuzzTarget registry.
//
// Buildable with any C++20 compiler (no libFuzzer dependency), so it is the
// CI path for corpus replay under sanitizers.
//
//   gpbft_fuzz list
//   gpbft_fuzz corpus <dir>                     regenerate the seed corpus
//   gpbft_fuzz replay <dir> [--target NAME]     run every corpus file
//   gpbft_fuzz mutate [--target NAME] [--seed N] [--iters N]
//
// Everything is deterministic: corpus generation derives its mutants from
// each target's seed input with a per-target forked Rng, and the mutation
// loop is a seeded xoshiro walk — the same seed always explores the same
// inputs, so a CI failure reproduces locally with one command.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "fuzz/targets.hpp"

namespace fs = std::filesystem;
using namespace gpbft;

namespace {

constexpr std::uint64_t kCorpusRngLabel = 0x636f72'707573ull;  // "corpus"

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

bool write_file(const fs::path& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out);
}

bool read_file(const fs::path& path, Bytes& data) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  data.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

/// One random structural mutation. The families mirror net::TamperRule so
/// the unit fuzzer and the in-sim wire adversary probe the same fault
/// space: bit flips, truncation, extension, and length-field lies.
Bytes mutate_once(const Bytes& input, Rng& rng) {
  Bytes out = input;
  switch (rng.uniform(0, 5)) {
    case 0: {  // flip 1..8 bits
      if (out.empty()) break;
      const auto flips = rng.uniform(1, 8);
      for (std::uint64_t i = 0; i < flips; ++i) {
        out[rng.uniform(0, out.size() - 1)] ^= static_cast<std::uint8_t>(
            1u << rng.uniform(0, 7));
      }
      break;
    }
    case 1: {  // truncate to a random prefix
      if (out.empty()) break;
      out.resize(rng.uniform(0, out.size() - 1));
      break;
    }
    case 2: {  // extend with random bytes
      const auto extra = rng.uniform(1, 64);
      for (std::uint64_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<std::uint8_t>(rng.uniform(0, 255)));
      }
      break;
    }
    case 3: {  // overwrite a run with 0xFF (varint length lies love this)
      if (out.empty()) break;
      const auto at = rng.uniform(0, out.size() - 1);
      const auto len = std::min<std::uint64_t>(rng.uniform(1, 9), out.size() - at);
      std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(at), len, 0xff);
      break;
    }
    case 4: {  // zero a run
      if (out.empty()) break;
      const auto at = rng.uniform(0, out.size() - 1);
      const auto len = std::min<std::uint64_t>(rng.uniform(1, 16), out.size() - at);
      std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(at), len, 0x00);
      break;
    }
    case 5: {  // splice: duplicate an internal slice over another position
      if (out.size() < 2) break;
      const auto from = rng.uniform(0, out.size() - 1);
      const auto to = rng.uniform(0, out.size() - 1);
      const auto len = std::min<std::uint64_t>(rng.uniform(1, 32),
                                               out.size() - std::max(from, to));
      if (len > 0 && from != to) {
        const Bytes slice(out.begin() + static_cast<std::ptrdiff_t>(from),
                          out.begin() + static_cast<std::ptrdiff_t>(from + len));
        std::copy(slice.begin(), slice.end(), out.begin() + static_cast<std::ptrdiff_t>(to));
      }
      break;
    }
  }
  return out;
}

/// Deterministic malformed variants of a target's seed input. These (plus
/// the valid seed itself) form the checked-in corpus; every file is run
/// through the target immediately, so generation doubles as a smoke test.
std::vector<std::pair<std::string, Bytes>> corpus_entries(const fuzz::FuzzTarget& target) {
  const Bytes seed = target.seed();
  std::vector<std::pair<std::string, Bytes>> entries;
  entries.emplace_back("000_valid.bin", seed);
  entries.emplace_back("001_empty.bin", Bytes{});
  Bytes half(seed.begin(), seed.begin() + static_cast<std::ptrdiff_t>(seed.size() / 2));
  entries.emplace_back("002_trunc_half.bin", std::move(half));
  if (!seed.empty()) {
    entries.emplace_back("003_trunc_tail.bin", Bytes(seed.begin(), seed.end() - 1));
  }
  Bytes extended = seed;
  extended.insert(extended.end(), 16, 0xff);
  entries.emplace_back("004_extended.bin", std::move(extended));
  entries.emplace_back("005_zeroed.bin", Bytes(seed.size(), 0x00));
  // A huge declared length up front: 5-byte varint claiming ~2^34 bytes.
  Bytes oversize{0xff, 0xff, 0xff, 0xff, 0x3f};
  oversize.insert(oversize.end(), seed.begin(), seed.end());
  entries.emplace_back("006_oversize_len.bin", std::move(oversize));
  // Seeded bit-flip mutants, reproducible per target name.
  Rng rng = Rng(fnv1a(target.name)).fork(kCorpusRngLabel);
  for (int i = 0; i < 8; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "%03d_mutant.bin", 7 + i);
    entries.emplace_back(name, mutate_once(seed, rng));
  }
  return entries;
}

int cmd_list() {
  for (const auto& target : fuzz::targets()) std::printf("%s\n", target.name);
  return 0;
}

int cmd_corpus(const fs::path& root) {
  std::size_t files = 0;
  for (const auto& target : fuzz::targets()) {
    const fs::path dir = root / target.name;
    fs::create_directories(dir);
    for (auto& [name, data] : corpus_entries(target)) {
      target.run(BytesView(data.data(), data.size()));  // totality self-check
      if (!write_file(dir / name, data)) {
        std::fprintf(stderr, "error: cannot write %s\n", (dir / name).c_str());
        return 1;
      }
      ++files;
    }
  }
  std::printf("corpus: wrote %zu files for %zu targets under %s\n", files,
              fuzz::targets().size(), root.c_str());
  return 0;
}

int cmd_replay(const fs::path& root, const std::string& only) {
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "error: corpus directory %s not found\n", root.c_str());
    return 1;
  }
  std::size_t files = 0;
  std::size_t accepted = 0;
  for (const auto& target : fuzz::targets()) {
    if (!only.empty() && only != target.name) continue;
    const fs::path dir = root / target.name;
    if (!fs::is_directory(dir)) continue;
    std::vector<fs::path> paths;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file()) paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& path : paths) {
      Bytes data;
      if (!read_file(path, data)) {
        std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
        return 1;
      }
      accepted += target.run(BytesView(data.data(), data.size())) ? 1 : 0;
      ++files;
    }
  }
  if (files == 0) {
    std::fprintf(stderr, "error: no corpus files matched under %s\n", root.c_str());
    return 1;
  }
  std::printf("replay: %zu files, %zu accepted, %zu rejected, 0 crashes\n", files, accepted,
              files - accepted);
  return 0;
}

int cmd_mutate(const std::string& only, std::uint64_t seed, std::uint64_t iters) {
  std::size_t total = 0;
  std::size_t accepted = 0;
  for (const auto& target : fuzz::targets()) {
    if (!only.empty() && only != target.name) continue;
    Rng rng(seed ^ fnv1a(target.name));
    // Pool of interesting inputs: the valid seed plus its corpus mutants.
    std::vector<Bytes> pool;
    for (auto& [name, data] : corpus_entries(target)) pool.push_back(std::move(data));
    for (std::uint64_t i = 0; i < iters; ++i) {
      Bytes input = pool[rng.uniform(0, pool.size() - 1)];
      const auto rounds = rng.uniform(1, 4);
      for (std::uint64_t r = 0; r < rounds; ++r) input = mutate_once(input, rng);
      const bool ok = target.run(BytesView(input.data(), input.size()));
      accepted += ok ? 1 : 0;
      ++total;
      // Accepted mutants are rare and interesting; keep a bounded pool.
      if (ok && pool.size() < 64) pool.push_back(std::move(input));
    }
  }
  if (total == 0) {
    std::fprintf(stderr, "error: no target named %s\n", only.c_str());
    return 1;
  }
  std::printf("mutate: %zu inputs, %zu accepted, %zu rejected, 0 crashes\n", total, accepted,
              total - accepted);
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: gpbft_fuzz list\n"
               "       gpbft_fuzz corpus <dir>\n"
               "       gpbft_fuzz replay <dir> [--target NAME]\n"
               "       gpbft_fuzz mutate [--target NAME] [--seed N] [--iters N]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  std::string target;
  std::string dir;
  std::uint64_t seed = 1;
  std::uint64_t iters = 2000;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--target") {
      target = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--iters") {
      iters = std::strtoull(next(), nullptr, 10);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return 2;
    } else if (dir.empty()) {
      dir = arg;
    } else {
      usage();
      return 2;
    }
  }
  if (!target.empty() && fuzz::find_target(target) == nullptr) {
    std::fprintf(stderr, "error: unknown target %s (see `gpbft_fuzz list`)\n", target.c_str());
    return 2;
  }
  if (command == "list") return cmd_list();
  if (command == "corpus") {
    if (dir.empty()) {
      usage();
      return 2;
    }
    return cmd_corpus(dir);
  }
  if (command == "replay") {
    if (dir.empty()) {
      usage();
      return 2;
    }
    return cmd_replay(dir, target);
  }
  if (command == "mutate") return cmd_mutate(target, seed, iters);
  usage();
  return 2;
}
