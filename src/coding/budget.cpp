#include "coding/budget.hpp"

#include <algorithm>

#include "core/contracts.hpp"

namespace ncdn {

coded_budget block_budget(std::size_t b_bits, std::size_t d_bits) {
  NCDN_EXPECTS(b_bits >= 1 && d_bits >= 1);
  coded_budget out;
  // Half the message for payload, rounded down to whole tokens; at least
  // one token per block.
  out.tokens_per_item = std::max<std::size_t>(1, b_bits / (2 * d_bits));
  out.item_bits = out.tokens_per_item * d_bits;
  // The other half pays for 1-bit (q = 2) coefficients.
  out.items = std::max<std::size_t>(1, b_bits / 2);
  out.tokens_total = out.items * out.tokens_per_item;
  out.message_bits = out.items + out.item_bits;
  return out;
}

}  // namespace ncdn
