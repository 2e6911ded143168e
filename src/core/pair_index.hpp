// A lookup-only index from a nonzero 64-bit pair key to a 32-bit position.
//
// Callers keep their records in a plain vector in first-sighting order and
// find a record's position here: edge-markov's chain archive
// (dynnet/adversary.hpp) and the Gilbert-Elliott loss memo
// (linkmodel/linkmodel.cpp) key it on an undirected edge, lo << 32 | hi
// with lo < hi, which is never 0, the empty-slot marker.  The hash is fixed
// and the table is never iterated, so no answer depends on a standard
// library's bucket order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ncdn {

/// Open addressing over a power-of-two table at most half full.
class pair_index {
 public:
  /// What find returns for a key never recorded.
  static constexpr std::uint32_t npos = ~std::uint32_t{0};

  /// The position recorded for `key`; an unseen key is recorded at
  /// `fresh`, which is returned.
  std::uint32_t find_or_insert(std::uint64_t key, std::uint32_t fresh);

  /// The position recorded for `key`, or npos.  Never inserts.
  std::uint32_t find(std::uint64_t key) const {
    if (keys_.empty()) return npos;
    const std::size_t i = probe(key);
    return keys_[i] == key ? positions_[i] : npos;
  }

  bool empty() const noexcept { return size_ == 0; }

 private:
  /// The slot holding `key`, or the empty slot where it would go.
  std::size_t probe(std::uint64_t key) const;
  void grow();

  std::vector<std::uint64_t> keys_;  // 0 = empty
  std::vector<std::uint32_t> positions_;
  std::size_t size_ = 0;
};

}  // namespace ncdn
