// Batch Gaussian elimination over GF(2) on word-packed rows.
// The library's decoders all eliminate online (linalg/decoder.hpp, the
// generation strategies of coding/matrix.cpp); gf2_rref is the batch
// reference their tests check against, and it backs the one-shot rank
// helper below.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/bitvec.hpp"
#include "linalg/row_block.hpp"

namespace ncdn {

/// Rank of the row space (rows consumed by value).
std::size_t gf2_rank(std::vector<bitvec> rows);

/// In-place reduced row echelon form; zero rows are dropped.
/// Returns pivot column of each remaining row, in increasing order.
/// When `xor_words` is non-null it is incremented by the 64-bit XOR
/// word-operations the elimination performed (the count an online decoder
/// must reproduce when it eliminates the same rows one at a time).
std::vector<std::size_t> gf2_rref(std::vector<bitvec>& rows,
                                  std::uint64_t* xor_words = nullptr);

/// True iff (rows, pivots) is a canonical RREF: one pivot per row, pivots
/// strictly increasing, each row leading with its pivot, and every pivot
/// column zero in all other rows (the audit-build check of gf2_rref and
/// of the online generation decoders).
bool is_canonical_rref(const std::vector<bitvec>& rows,
                       const std::vector<std::size_t>& pivots);
bool is_canonical_rref(const row_block& rows,
                       const std::vector<pivot_index>& pivots);

}  // namespace ncdn
