#include "dynnet/network.hpp"

#include <cmath>

#include "core/bits.hpp"

namespace ncdn {

double message_bit_limit(std::size_t n, std::size_t b_bits, double slack) {
  return slack * static_cast<double>(b_bits) +
         (8.0 * static_cast<double>(bits_for(n)) + 64.0);
}

network::network(std::size_t n, std::size_t b_bits, adversary& adv,
                 std::uint64_t seed, double slack)
    : n_(n),
      bit_limit_(message_bit_limit(n, b_bits, slack)),
      adv_(adv) {
  NCDN_EXPECTS(n >= 1);
  // The model requires b >= log n (§4.1).
  NCDN_EXPECTS(b_bits >= bits_for(n));
  rng master(seed);
  node_rngs_.reserve(n);
  for (node_id u = 0; u < n; ++u) node_rngs_.push_back(master.fork(u));
}

}  // namespace ncdn
