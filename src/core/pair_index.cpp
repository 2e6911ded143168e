#include "core/pair_index.hpp"

#include <algorithm>
#include <utility>

#include "core/contracts.hpp"

namespace ncdn {

std::uint32_t pair_index::find_or_insert(std::uint64_t key,
                                         std::uint32_t fresh) {
  NCDN_EXPECTS(key != 0);
  if (keys_.empty()) grow();
  const std::size_t i = probe(key);
  if (keys_[i] == key) return positions_[i];
  keys_[i] = key;
  positions_[i] = fresh;
  if (2 * ++size_ > keys_.size()) grow();
  return fresh;
}

std::size_t pair_index::probe(std::uint64_t key) const {
  // Fibonacci hashing picks the home slot; linear probing from there
  // stops at the key or at the first empty slot.
  const std::size_t mask = keys_.size() - 1;
  std::size_t i = ((key * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
  while (keys_[i] != key && keys_[i] != 0) i = (i + 1) & mask;
  return i;
}

void pair_index::grow() {
  const std::vector<std::uint64_t> old_keys = std::move(keys_);
  const std::vector<std::uint32_t> old_positions = std::move(positions_);
  const std::size_t capacity = std::max<std::size_t>(64, 2 * old_keys.size());
  keys_.assign(capacity, 0);
  positions_.assign(capacity, 0);
  for (std::size_t j = 0; j < old_keys.size(); ++j) {
    if (old_keys[j] == 0) continue;
    const std::size_t i = probe(old_keys[j]);
    keys_[i] = old_keys[j];
    positions_[i] = old_positions[j];
  }
}

}  // namespace ncdn
