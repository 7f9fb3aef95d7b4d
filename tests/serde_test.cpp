// Unit and property tests for the serde binary codec.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "serde/reader.hpp"
#include "serde/writer.hpp"

namespace gpbft::serde {
namespace {

TEST(Serde, FixedWidthRoundtrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);

  Reader r(BytesView(w.buffer().data(), w.buffer().size()));
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64().value(), -42);
  EXPECT_DOUBLE_EQ(r.f64().value(), 3.14159);
  EXPECT_TRUE(r.boolean().value());
  EXPECT_FALSE(r.boolean().value());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serde, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  EXPECT_EQ(w.buffer(), (Bytes{0x04, 0x03, 0x02, 0x01}));
}

TEST(Serde, VarintKnownEncodings) {
  {
    Writer w;
    w.varint(0);
    EXPECT_EQ(w.buffer(), Bytes{0x00});
  }
  {
    Writer w;
    w.varint(127);
    EXPECT_EQ(w.buffer(), Bytes{0x7f});
  }
  {
    Writer w;
    w.varint(128);
    EXPECT_EQ(w.buffer(), (Bytes{0x80, 0x01}));
  }
  {
    Writer w;
    w.varint(300);
    EXPECT_EQ(w.buffer(), (Bytes{0xac, 0x02}));
  }
}

TEST(Serde, VarintMaxValue) {
  Writer w;
  w.varint(~0ull);
  Reader r(BytesView(w.buffer().data(), w.buffer().size()));
  EXPECT_EQ(r.varint().value(), ~0ull);
}

TEST(Serde, StringsAndBytes) {
  Writer w;
  w.string("hello");
  w.bytes(Bytes{1, 2, 3});
  w.string("");

  Reader r(BytesView(w.buffer().data(), w.buffer().size()));
  EXPECT_EQ(r.string().value(), "hello");
  EXPECT_EQ(r.bytes().value(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.string().value(), "");
  EXPECT_TRUE(r.exhausted());
}

// --- malformed input never crashes, always errors ------------------------------

TEST(Serde, TruncatedFixedWidth) {
  const Bytes data{0x01, 0x02};
  Reader r(BytesView(data.data(), data.size()));
  EXPECT_FALSE(r.u32().ok());
}

TEST(Serde, TruncatedVarint) {
  const Bytes data{0x80, 0x80};  // continuation bits with no terminator
  Reader r(BytesView(data.data(), data.size()));
  EXPECT_FALSE(r.varint().ok());
}

TEST(Serde, OverlongVarintRejected) {
  const Bytes data(11, 0x80);  // > 10 groups of 7 bits
  Reader r(BytesView(data.data(), data.size()));
  EXPECT_FALSE(r.varint().ok());
}

TEST(Serde, LengthPrefixExceedingLimitRejected) {
  Writer w;
  w.varint(1'000'000);  // claimed length with no payload
  Reader r(BytesView(w.buffer().data(), w.buffer().size()));
  EXPECT_FALSE(r.bytes(1024).ok());
}

TEST(Serde, LengthPrefixLongerThanInputRejected) {
  Writer w;
  w.varint(100);
  w.raw(Bytes{1, 2, 3});
  Reader r(BytesView(w.buffer().data(), w.buffer().size()));
  EXPECT_FALSE(r.bytes().ok());
}

TEST(Serde, InvalidBoolByteRejected) {
  const Bytes data{0x02};
  Reader r(BytesView(data.data(), data.size()));
  EXPECT_FALSE(r.boolean().ok());
}

TEST(Serde, EmptyInputErrorsOnEverything) {
  Reader r(BytesView{});
  EXPECT_FALSE(r.u8().ok());
  EXPECT_FALSE(r.u64().ok());
  EXPECT_FALSE(r.varint().ok());
  EXPECT_FALSE(r.bytes().ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serde, VarintShift63AliasRejected) {
  // The 10th varint group can only contribute its low bit to a u64; any
  // higher payload bit would be shifted out silently, letting two distinct
  // encodings alias to one value.
  Bytes overflow(9, 0x80);
  overflow.push_back(0x02);
  Reader bad(BytesView(overflow.data(), overflow.size()));
  EXPECT_FALSE(bad.varint().ok());

  Bytes top_bit(9, 0x80);
  top_bit.push_back(0x01);
  Reader good(BytesView(top_bit.data(), top_bit.size()));
  auto v = good.varint();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 1ull << 63);
}

TEST(Serde, OversizeDeclaredLengthRejectedBeforeAllocation) {
  // A forged ~2^34-byte length prefix (the tamper adversary's oversize
  // family) must fall to the length checks alone — no allocation sized
  // from attacker-controlled bytes.
  const Bytes data{0xff, 0xff, 0xff, 0xff, 0x3f, 0xaa, 0xbb};
  Reader r(BytesView(data.data(), data.size()));
  EXPECT_FALSE(r.bytes().ok());
  Reader s(BytesView(data.data(), data.size()));
  EXPECT_FALSE(s.string().ok());
}

TEST(Serde, RawBeyondRemainingRejectedWithoutConsuming) {
  const Bytes data{1, 2, 3};
  Reader r(BytesView(data.data(), data.size()));
  EXPECT_FALSE(r.raw(4).ok());
  auto ok = r.raw(3);  // the failed read must not have moved the cursor
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(Bytes(ok.value().begin(), ok.value().end()), (Bytes{1, 2, 3}));
}

// --- property: roundtrips over random payloads -----------------------------------

class SerdeRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerdeRoundtrip, RandomSequenceRoundtrips) {
  Rng rng(GetParam());
  // Random sequence of typed fields, recorded, then replayed.
  struct Field {
    int kind;
    std::uint64_t integer;
    double real;
    Bytes blob;
  };
  std::vector<Field> fields;
  Writer w;
  const int count = static_cast<int>(rng.uniform(1, 40));
  for (int i = 0; i < count; ++i) {
    Field f;
    f.kind = static_cast<int>(rng.uniform(0, 4));
    switch (f.kind) {
      case 0:
        f.integer = rng.next();
        w.u64(f.integer);
        break;
      case 1:
        f.integer = rng.next();
        w.varint(f.integer);
        break;
      case 2:
        f.real = rng.uniform_real(-1e12, 1e12);
        w.f64(f.real);
        break;
      case 3: {
        const std::size_t len = rng.uniform(0, 64);
        f.blob.resize(len);
        for (auto& b : f.blob) b = static_cast<std::uint8_t>(rng.next());
        w.bytes(BytesView(f.blob.data(), f.blob.size()));
        break;
      }
      case 4:
        f.integer = rng.uniform(0, 1);
        w.boolean(f.integer == 1);
        break;
      default:
        break;
    }
    fields.push_back(std::move(f));
  }

  Reader r(BytesView(w.buffer().data(), w.buffer().size()));
  for (const Field& f : fields) {
    switch (f.kind) {
      case 0:
        EXPECT_EQ(r.u64().value(), f.integer);
        break;
      case 1:
        EXPECT_EQ(r.varint().value(), f.integer);
        break;
      case 2:
        EXPECT_DOUBLE_EQ(r.f64().value(), f.real);
        break;
      case 3:
        EXPECT_EQ(r.bytes().value(), f.blob);
        break;
      case 4:
        EXPECT_EQ(r.boolean().value(), f.integer == 1);
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeRoundtrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

}  // namespace
}  // namespace gpbft::serde
