// The golden-manifest reader (tests/goldens.hpp): a well-formed manifest
// resolves every name, and a duplicate name, a malformed line or an unknown
// name each fails with that name in the message.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "goldens.hpp"

namespace gpbft::goldens {
namespace {

const std::string kDigestA(64, 'a');
const std::string kDigestB = std::string(32, '0') + std::string(32, 'f');

/// The message of the std::runtime_error `fn` throws ("" if it throws none).
template <typename Fn>
std::string error_of(Fn fn) {
  try {
    fn();
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(GoldenManifest, ResolvesEveryName) {
  const Manifest manifest =
      Manifest::parse(kDigestA + "  parity/pbft.tip\n" + kDigestB + "  scenario/x.trace.json\n");
  EXPECT_EQ(manifest.at("parity/pbft.tip"), kDigestA);
  EXPECT_EQ(manifest.at("scenario/x.trace.json"), kDigestB);
}

TEST(GoldenManifest, DuplicateNameFailsNamingIt) {
  const std::string error = error_of(
      [] { (void)Manifest::parse(kDigestA + "  disk/pbft\n" + kDigestB + "  disk/pbft\n"); });
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("duplicate name \"disk/pbft\""), std::string::npos) << error;
}

TEST(GoldenManifest, MalformedLineFailsNamingIt) {
  const std::string malformed[] = {
      kDigestA.substr(1) + "  scale/short",           // 63 hex digits
      "A" + kDigestA.substr(1) + "  scale/upper",     // not lowercase
      kDigestA + " scale/one-space",                  // sha256sum puts two
      kDigestA + "  scale/two words",                 // a name has no blanks
      kDigestA + "\tscale/tab",
  };
  for (const std::string& line : malformed) {
    SCOPED_TRACE(line);
    const std::string error =
        error_of([&line] { (void)Manifest::parse(kDigestA + "  ok\n" + line + "\n"); });
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find(line), std::string::npos) << error;
  }
  EXPECT_NE(error_of([] { (void)Manifest::parse(kDigestA + "  \n"); }), "");  // no name
  EXPECT_NE(error_of([] { (void)Manifest::parse("\n"); }), "");              // blank line
}

TEST(GoldenManifest, UnknownNameFailsNamingIt) {
  const Manifest manifest = Manifest::parse(kDigestA + "  scale/pbft-n20\n");
  const std::string error = error_of([&manifest] { (void)manifest.at("scale/plane"); });
  EXPECT_NE(error.find("no entry named \"scale/plane\""), std::string::npos) << error;
}

}  // namespace
}  // namespace gpbft::goldens
