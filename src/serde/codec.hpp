// Wire layouts, declared once per type.
//
// Every wire type (transactions, blocks, PoW blocks and each PBFT / G-PBFT
// message body) states its layout once, as a field list: a static
// `fields(m)` naming its members in wire order,
//
//   static auto fields(auto& m) { return serde::fields(m.view, m.seq, m.digest, m.replica); }
//
// and encode(), decode() and encoded_size() below all walk that one list.
// An encoder therefore cannot drift from its decoder, and encode() writes
// into one allocation of exactly encoded_size() bytes — the byte counts the
// communication-cost experiments (Figs. 5-6) account.
//
// A field's C++ type fixes its layout:
//
//   std::uint64_t, NodeId     u64, little-endian
//   std::int64_t, TimePoint   i64
//   double                    f64 (the IEEE-754 bits)
//   bool                      one byte, 0 or 1
//   a `bytes` std::array      its N bytes, no prefix (hashes, addresses)
//   Bytes                     varint length, then the bytes
//   a type with fields()      its fields inline, no prefix
//
// and wrappers say the rest:
//
//   framed(x)                 varint length, then x, which must fill it exactly
//   list<Max, Element>(v)     varint count of at most Max, then each element
//                             laid out by Element: Inline (its own layout),
//                             Framed, or Text<MaxLen> (a varint-length string)
//   tail<Max>(v)              an Inline list written only when non-empty and
//                             read only when bytes remain (so it comes last);
//                             a tail that is present must not be empty
//   byte_enum<Max>(e)         an enum as one byte of at most Max
//
// Decoding reads through serde::Reader, so every length and count is checked
// against its bound and against the bytes left before anything is sized
// from it; decode() refuses trailing bytes.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "serde/reader.hpp"
#include "serde/writer.hpp"

namespace gpbft::serde {

/// A field list: references to plain fields, wrappers by value.
template <typename... F>
[[nodiscard]] std::tuple<F...> fields(F&&... f) {
  return std::tuple<F...>(std::forward<F>(f)...);
}

template <typename T>
concept Record = requires(T& value) { T::fields(value); };

template <typename T>
concept ByteArray =
    std::is_same_v<decltype(T::bytes), std::array<std::uint8_t, sizeof(T::bytes)>>;

/// The decode side's cursor: the Reader and the first reason a read failed.
/// Field reads return bool, so a decode builds no error value per field.
struct Source {
  Reader reader;
  std::string error;

  /// Stores a successful read in `out`, or records why it failed.
  template <typename U, typename T>
  bool take(Result<U>&& got, T& out) {
    if (!got) return fail(got.error());
    out = std::move(got.value());
    return true;
  }
  bool fail(std::string why) {
    error = std::move(why);
    return false;
  }
};

/// How a field of type T is laid out: static size(v), write(w, v) and
/// read(in, v) -> bool.
template <typename T>
struct Layout;

template <typename F>
using LayoutOf = Layout<std::remove_cvref_t<F>>;

template <>
struct Layout<std::uint64_t> {
  static std::size_t size(std::uint64_t) { return 8; }
  static void write(Writer& w, std::uint64_t v) { w.u64(v); }
  static bool read(Source& in, std::uint64_t& v) { return in.take(in.reader.u64(), v); }
};

template <>
struct Layout<std::int64_t> {
  static std::size_t size(std::int64_t) { return 8; }
  static void write(Writer& w, std::int64_t v) { w.i64(v); }
  static bool read(Source& in, std::int64_t& v) { return in.take(in.reader.i64(), v); }
};

template <>
struct Layout<double> {
  static std::size_t size(double) { return 8; }
  static void write(Writer& w, double v) { w.f64(v); }
  static bool read(Source& in, double& v) { return in.take(in.reader.f64(), v); }
};

template <>
struct Layout<bool> {
  static std::size_t size(bool) { return 1; }
  static void write(Writer& w, bool v) { w.boolean(v); }
  static bool read(Source& in, bool& v) { return in.take(in.reader.boolean(), v); }
};

template <>
struct Layout<NodeId> {
  static std::size_t size(NodeId) { return 8; }
  static void write(Writer& w, NodeId v) { w.u64(v.value); }
  static bool read(Source& in, NodeId& v) { return in.take(in.reader.u64(), v.value); }
};

template <>
struct Layout<TimePoint> {
  static std::size_t size(TimePoint) { return 8; }
  static void write(Writer& w, TimePoint v) { w.i64(v.ns); }
  static bool read(Source& in, TimePoint& v) { return in.take(in.reader.i64(), v.ns); }
};

template <>
struct Layout<Bytes> {
  static std::size_t size(const Bytes& v) { return varint_size(v.size()) + v.size(); }
  static void write(Writer& w, const Bytes& v) { w.bytes(v); }
  static bool read(Source& in, Bytes& v) { return in.take(in.reader.bytes(), v); }
};

template <ByteArray T>
struct Layout<T> {
  static std::size_t size(const T& v) { return v.bytes.size(); }
  static void write(Writer& w, const T& v) { w.raw(v.bytes); }
  static bool read(Source& in, T& v) {
    auto got = in.reader.raw(v.bytes.size());
    if (!got) return in.fail(got.error());
    std::copy(got.value().begin(), got.value().end(), v.bytes.begin());
    return true;
  }
};

template <Record T>
struct Layout<T> {
  static std::size_t size(const T& v) {
    return std::apply(
        [](auto&&... f) { return (std::size_t{0} + ... + LayoutOf<decltype(f)>::size(f)); },
        T::fields(v));
  }
  static void write(Writer& w, const T& v) {
    std::apply([&w](auto&&... f) { (LayoutOf<decltype(f)>::write(w, f), ...); }, T::fields(v));
  }
  /// Reads field by field and stops at the first failure.
  static bool read(Source& in, T& v) {
    return std::apply(
        [&in](auto&&... f) { return (LayoutOf<decltype(f)>::read(in, f) && ...); },
        T::fields(v));
  }
};

// --- element layouts -------------------------------------------------------------

/// The element's own layout.
struct Inline {
  template <typename T>
  static std::size_t size(const T& v) { return Layout<T>::size(v); }
  template <typename T>
  static void write(Writer& w, const T& v) { Layout<T>::write(w, v); }
  template <typename T>
  static bool read(Source& in, T& v) { return Layout<T>::read(in, v); }
};

/// A varint length, then the value, which must fill exactly that length.
struct Framed {
  template <typename T>
  static std::size_t size(const T& v) {
    const std::size_t n = Layout<T>::size(v);
    return varint_size(n) + n;
  }
  template <typename T>
  static void write(Writer& w, const T& v) {
    w.varint(Layout<T>::size(v));
    Layout<T>::write(w, v);
  }
  template <typename T>
  static bool read(Source& in, T& v) {
    auto frame = in.reader.bytes_view();
    if (!frame) return in.fail(frame.error());
    Source inner{Reader(frame.value()), {}};
    if (!Layout<T>::read(inner, v)) return in.fail(std::move(inner.error));
    if (!inner.reader.exhausted()) return in.fail("serde: trailing bytes in a framed value");
    return true;
  }
};

/// A varint-length string of at most MaxLen bytes.
template <std::size_t MaxLen>
struct Text {
  static std::size_t size(const std::string& s) { return varint_size(s.size()) + s.size(); }
  static void write(Writer& w, const std::string& s) { w.string(s); }
  static bool read(Source& in, std::string& s) { return in.take(in.reader.string(MaxLen), s); }
};

// --- wrappers ----------------------------------------------------------------------

template <typename Element, typename T>
struct As {
  T& value;
};

template <typename T>
[[nodiscard]] As<Framed, T> framed(T& value) {
  return {value};
}

template <typename Element, typename T>
struct Layout<As<Element, T>> {
  static std::size_t size(const As<Element, T>& f) { return Element::size(f.value); }
  static void write(Writer& w, const As<Element, T>& f) { Element::write(w, f.value); }
  static bool read(Source& in, const As<Element, T>& f) { return Element::read(in, f.value); }
};

template <std::size_t Max, typename Element, typename V>
struct List {
  V& items;
};

template <std::size_t Max, typename Element = Inline, typename V>
[[nodiscard]] List<Max, Element, V> list(V& items) {
  return {items};
}

template <std::size_t Max, typename Element, typename V>
struct Layout<List<Max, Element, V>> {
  static std::size_t size(const List<Max, Element, V>& f) {
    std::size_t n = varint_size(f.items.size());
    for (const auto& item : f.items) n += Element::size(item);
    return n;
  }
  static void write(Writer& w, const List<Max, Element, V>& f) {
    w.varint(f.items.size());
    for (const auto& item : f.items) Element::write(w, item);
  }
  static bool read(Source& in, const List<Max, Element, V>& f) {
    auto count = in.reader.varint();
    if (!count) return in.fail(count.error());
    if (count.value() > Max) return in.fail("serde: count exceeds its bound");
    // Each element takes at least one byte, so a count beyond the bytes
    // left is refused before it sizes an allocation.
    if (count.value() > in.reader.remaining()) {
      return in.fail("serde: count exceeds the remaining bytes");
    }
    f.items.reserve(static_cast<std::size_t>(count.value()));
    for (std::uint64_t i = 0; i < count.value(); ++i) {
      if (!Element::read(in, f.items.emplace_back())) return false;
    }
    return true;
  }
};

template <std::size_t Max, typename V>
struct Tail {
  V& items;
};

template <std::size_t Max, typename V>
[[nodiscard]] Tail<Max, V> tail(V& items) {
  return {items};
}

template <std::size_t Max, typename V>
struct Layout<Tail<Max, V>> {
  using AsList = Layout<List<Max, Inline, V>>;
  static std::size_t size(const Tail<Max, V>& f) {
    return f.items.empty() ? 0 : AsList::size({f.items});
  }
  static void write(Writer& w, const Tail<Max, V>& f) {
    if (!f.items.empty()) AsList::write(w, {f.items});
  }
  static bool read(Source& in, const Tail<Max, V>& f) {
    if (in.reader.exhausted()) return true;
    if (!AsList::read(in, {f.items})) return false;
    return !f.items.empty() || in.fail("serde: empty tail");
  }
};

template <auto Max, typename E>
struct ByteEnum {
  E& value;
};

template <auto Max, typename E>
[[nodiscard]] ByteEnum<Max, E> byte_enum(E& value) {
  return {value};
}

template <auto Max, typename E>
struct Layout<ByteEnum<Max, E>> {
  static std::size_t size(const ByteEnum<Max, E>&) { return 1; }
  static void write(Writer& w, const ByteEnum<Max, E>& f) {
    w.u8(static_cast<std::uint8_t>(f.value));
  }
  static bool read(Source& in, const ByteEnum<Max, E>& f) {
    auto got = in.reader.u8();
    if (!got) return in.fail(got.error());
    if (got.value() > static_cast<std::uint8_t>(Max)) return in.fail("serde: unknown enum value");
    f.value = static_cast<E>(got.value());
    return true;
  }
};

// --- entry points -------------------------------------------------------------------

/// Bytes encode(value) writes.
template <typename T>
[[nodiscard]] std::size_t encoded_size(const T& value) {
  return Layout<T>::size(value);
}

template <typename T>
[[nodiscard]] Bytes encode(const T& value) {
  Writer w;
  w.reserve(encoded_size(value));
  Layout<T>::write(w, value);
  return w.take();
}

/// Decodes exactly `data`: a value that leaves bytes over is refused.
template <typename T>
[[nodiscard]] Result<T> decode(BytesView data) {
  Source in{Reader(data), {}};
  T value{};
  if (!Layout<T>::read(in, value)) return make_error(std::move(in.error));
  if (!in.reader.exhausted()) return make_error("serde: trailing bytes");
  return value;
}

}  // namespace gpbft::serde
