#include "linalg/bitmatrix.hpp"

#include <algorithm>

#include "core/contracts.hpp"

namespace ncdn {

namespace {

// One canonical-RREF check over any row store and pivot index type:
// `first_set(i)` is row i's first set bit, `get(i, c)` its bit c.
template <class Index, class FirstSet, class Get>
bool canonical_rref(std::size_t rows, const std::vector<Index>& pivots,
                    FirstSet first_set, Get get) {
  if (rows != pivots.size()) return false;
  for (std::size_t i = 0; i < rows; ++i) {
    if (i > 0 && pivots[i - 1] >= pivots[i]) return false;
    if (first_set(i) != pivots[i]) return false;
    for (std::size_t j = 0; j < rows; ++j) {
      if (j != i && get(j, pivots[i])) return false;
    }
  }
  return true;
}

}  // namespace

bool is_canonical_rref(const std::vector<bitvec>& rows,
                       const std::vector<std::size_t>& pivots) {
  const auto first_set = [&](std::size_t i) { return rows[i].first_set(); };
  const auto get = [&](std::size_t i, std::size_t c) { return rows[i].get(c); };
  return canonical_rref(rows.size(), pivots, first_set, get);
}

bool is_canonical_rref(const row_block& rows,
                       const std::vector<pivot_index>& pivots) {
  const auto first_set = [&](std::size_t i) {
    return first_set_bit(rows.row(i), rows.row_bits());
  };
  const auto get = [&](std::size_t i, std::size_t c) { return rows.get(i, c); };
  return canonical_rref(rows.size(), pivots, first_set, get);
}

std::vector<std::size_t> gf2_rref(std::vector<bitvec>& rows,
                                  std::uint64_t* xor_words) {
  std::vector<bitvec> reduced;
  std::vector<std::size_t> pivots;
  std::uint64_t work = 0;
  for (bitvec& row : rows) {
    const std::uint64_t w = row.words().size();
    // Forward-eliminate against the reduced set.
    for (std::size_t i = 0; i < reduced.size(); ++i) {
      if (row.get(pivots[i])) {
        row.xor_with(reduced[i]);
        work += w;
      }
    }
    const std::size_t p = row.first_set();
    if (p == row.size()) continue;  // dependent
    // Back-eliminate the new pivot from existing rows.
    for (std::size_t i = 0; i < reduced.size(); ++i) {
      if (reduced[i].get(p)) {
        reduced[i].xor_with(row);
        work += w;
      }
    }
    reduced.push_back(std::move(row));
    pivots.push_back(p);
  }
  if (xor_words != nullptr) *xor_words += work;
  // Sort rows by pivot for a canonical RREF.
  std::vector<std::size_t> order(reduced.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              return pivots[a] < pivots[b];
            });
  std::vector<bitvec> sorted;
  std::vector<std::size_t> sorted_pivots;
  sorted.reserve(reduced.size());
  for (std::size_t i : order) {
    sorted.push_back(std::move(reduced[i]));
    sorted_pivots.push_back(pivots[i]);
  }
  rows = std::move(sorted);
  NCDN_AUDIT(is_canonical_rref(rows, sorted_pivots));
  return sorted_pivots;
}

std::size_t gf2_rank(std::vector<bitvec> rows) {
  return gf2_rref(rows).size();
}

}  // namespace ncdn
