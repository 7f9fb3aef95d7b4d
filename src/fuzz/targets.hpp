// Deterministic protocol fuzzer: named targets over every wire codec.
//
// Each FuzzTarget wraps one decode path in a totality + round-trip oracle:
//
//  * Totality — run() must return for ANY input bytes. A crash, sanitizer
//    report, unbounded allocation or uncaught exception is a bug in the
//    decoder, exactly the class of defect the wire-tamper adversary
//    (net::TamperRule) probes at the system level. The fuzzer probes it at
//    the unit level, one codec at a time.
//  * Round-trip — when a decoder ACCEPTS an input, re-encoding the decoded
//    value and decoding it again must succeed and re-encode to the same
//    bytes (encode ∘ decode is a fixed point after one normalisation pass).
//    A violation aborts the process so it is loud under CI and libFuzzer
//    alike.
//
// The same registry backs three consumers: the gpbft_fuzz CLI driver
// (corpus generation / replay / deterministic mutation, buildable with any
// C++20 compiler), the optional libFuzzer entry point (GPBFT_FUZZ=ON,
// requires Clang), and the golden-rejection tests over the checked-in
// corpus (tests/wire_fuzz_test.cpp).
#pragma once

#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace gpbft::fuzz {

/// One fuzz entry point.
struct FuzzTarget {
  /// Stable name; also the corpus subdirectory (fuzz/corpus/<name>/).
  const char* name;
  /// Feeds `data` to the target's decode path. Returns true when the input
  /// was accepted (decoded cleanly), false when it was rejected. Must never
  /// crash; aborts on a round-trip oracle violation.
  bool (*run)(BytesView data);
  /// Small valid input for the target — the corpus seed and the starting
  /// point of the deterministic mutation loop.
  Bytes (*seed)();
};

/// All registered targets: one per wire codec (transactions, blocks, PoW
/// blocks, the thirteen PBFT/G-PBFT message bodies) plus the cross-cutting
/// drivers serde_walk (raw Reader primitives), chain_image (the durable
/// chain-image decoder), seal (MAC framing) and scenario (the key=value
/// scenario parser).
[[nodiscard]] const std::vector<FuzzTarget>& targets();

/// Looks a target up by name; nullptr when absent.
[[nodiscard]] const FuzzTarget* find_target(std::string_view name);

}  // namespace gpbft::fuzz
