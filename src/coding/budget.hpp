// Message-size budgeting: the paper's central accounting (§2.1, §3, §7).
//
// A coded message over field q carrying a combination of k' items of size
// s bits costs  k' * ceil(log2 q) + s  bits.  Given the message budget b,
// the block arithmetic of §7 groups tokens of size d into meta-tokens so
// that the coefficient header and the payload each use about half the
// message: b/2 blocks of b/(2d) tokens each, broadcasting ~b^2/(4d) tokens
// per indexed-broadcast invocation.  This header cost is exactly the
// "hidden overhead" the paper charges that prior network-coding work
// ignored (§3).
#pragma once

#include <cstddef>

namespace ncdn {

struct coded_budget {
  std::size_t items = 0;         // k': number of simultaneously coded items
  std::size_t item_bits = 0;     // size of one item (meta-token) in bits
  std::size_t tokens_per_item = 0;
  std::size_t tokens_total = 0;  // items * tokens_per_item
  std::size_t message_bits = 0;  // items * coeff_bits + item_bits
};

/// The §7 split for q = 2: maximize tokens broadcast per message of b bits
/// with tokens of d bits.  Returns items ~ b/2, item_bits ~ b/2 (rounded to
/// whole tokens), tokens_total ~ b^2 / 4d.
coded_budget block_budget(std::size_t b_bits, std::size_t d_bits);

}  // namespace ncdn
