// Minimal JSON tree + deterministic serializer.
//
// The sweep runner and the bench binaries emit machine-readable results
// (ncdn-run --out, BENCH_*.json); tests inspect the tree before it is
// dumped.  Design constraints, in order:
//   1. determinism — objects keep insertion order and numbers format
//      identically across runs, so equal sweeps dump byte-identical files;
//   2. zero dependencies — the container bakes no JSON library;
//   3. smallness — only what the runner needs (no comments; non-finite
//      numbers serialize as null; UTF-8 passed through verbatim).
//
// ncdn-lint: allow-file(float-metrics): json::value numbers are doubles
// by design; format_number prints integral values as integers and the
// rest through one fixed printf format, so equal values always emit equal
// bytes (constraint 1 above — the determinism the lint rule protects).
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ncdn::json {

class value;

enum class kind { null, boolean, number, string, array, object };

/// Arrays are plain vectors; objects are insertion-ordered key/value lists
/// (deterministic output; duplicate keys are the caller's bug).
using array = std::vector<value>;
using object = std::vector<std::pair<std::string, value>>;

/// A value holds exactly one alternative (a tagged union, 40 bytes), so a
/// report tree of many small objects costs a fraction of one that carries
/// every alternative in every node.
class value {
 public:
  value() noexcept {}
  value(std::nullptr_t) noexcept {}
  value(bool b) noexcept : kind_(kind::boolean), bool_(b) {}
  value(double d) noexcept : kind_(kind::number), num_(d) {}
  // One constrained template instead of per-type overloads: int, size_t,
  // uint64_t, round_t, ... all land here without ambiguity on platforms
  // where size_t is a distinct type from uint64_t (e.g. macOS).
  template <class T>
    requires(std::integral<T> && !std::same_as<T, bool>)
  value(T v) noexcept : kind_(kind::number), num_(static_cast<double>(v)) {}
  value(const char* s) : kind_(kind::string), str_(s) {}
  value(std::string s) : kind_(kind::string), str_(std::move(s)) {}
  value(array a) : kind_(kind::array), arr_(std::move(a)) {}
  value(object o) : kind_(kind::object), obj_(std::move(o)) {}

  value(const value& other) : kind_(other.kind_) { construct_from(other); }
  value(value&& other) noexcept : kind_(other.kind_) {
    construct_from(std::move(other));
  }
  value& operator=(const value& other) {
    if (this != &other) *this = value(other);
    return *this;
  }
  value& operator=(value&& other) noexcept {
    if (this != &other) {
      destroy();
      kind_ = other.kind_;
      construct_from(std::move(other));
    }
    return *this;
  }
  ~value() { destroy(); }

  json::kind type() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == kind::null; }
  bool is_bool() const noexcept { return kind_ == kind::boolean; }
  bool is_number() const noexcept { return kind_ == kind::number; }
  bool is_string() const noexcept { return kind_ == kind::string; }
  bool is_array() const noexcept { return kind_ == kind::array; }
  bool is_object() const noexcept { return kind_ == kind::object; }

  // On a value of another kind these read false, 0 or empty.
  bool as_bool() const noexcept { return is_bool() && bool_; }
  double as_number() const noexcept { return is_number() ? num_ : 0.0; }
  const std::string& as_string() const noexcept {
    static const std::string none;
    return is_string() ? str_ : none;
  }
  const array& items() const noexcept {
    static const array none;
    return is_array() ? arr_ : none;
  }
  const object& members() const noexcept {
    static const object none;
    return is_object() ? obj_ : none;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const value* find(const std::string& key) const noexcept {
    for (const auto& [k, v] : members()) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Compact, deterministic serialization (no whitespace).
  std::string dump() const;

  /// Pretty serialization, two-space indent (still deterministic).
  std::string dump_pretty() const;

 private:
  void write(std::string& out, int indent, int depth) const;

  // Builds the alternative kind_ names from other's (copied or moved).
  template <class Other>
  void construct_from(Other&& other) {
    switch (kind_) {
      case kind::null: break;
      case kind::boolean: bool_ = other.bool_; break;
      case kind::number: num_ = other.num_; break;
      case kind::string:
        std::construct_at(&str_, std::forward<Other>(other).str_);
        break;
      case kind::array:
        std::construct_at(&arr_, std::forward<Other>(other).arr_);
        break;
      case kind::object:
        std::construct_at(&obj_, std::forward<Other>(other).obj_);
        break;
    }
  }
  void destroy() noexcept {
    switch (kind_) {
      case kind::string: std::destroy_at(&str_); break;
      case kind::array: std::destroy_at(&arr_); break;
      case kind::object: std::destroy_at(&obj_); break;
      default: break;
    }
  }

  json::kind kind_ = kind::null;
  union {
    bool bool_;
    double num_ = 0.0;
    std::string str_;
    array arr_;
    object obj_;
  };
};

/// Appends a member to an object under construction (builder sugar).
inline void put(object& o, std::string key, value v) {
  o.emplace_back(std::move(key), std::move(v));
}

/// Serializes a string with JSON escaping (used by the serializer; exposed
/// for streaming writers like the bench recorder).
void escape_string(const std::string& s, std::string& out);

/// Deterministic number formatting: integral doubles in [-2^53, 2^53] print
/// with no fraction; everything else uses shortest round-trip formatting.
std::string format_number(double d);

}  // namespace ncdn::json
