#include "coding/token.hpp"

#include <algorithm>
#include <set>

#include "core/contracts.hpp"

namespace ncdn {

token_distribution make_distribution(std::size_t n, std::size_t k,
                                     std::size_t d_bits, placement place,
                                     rng& r) {
  NCDN_EXPECTS(n >= 1);
  NCDN_EXPECTS(k >= 1);
  NCDN_EXPECTS(k <= n || place == placement::single_source);  // §4.2: k <= n
  NCDN_EXPECTS(d_bits >= 1);

  token_distribution dist;
  dist.n = n;
  dist.d_bits = d_bits;
  dist.held_by_node.assign(n, {});

  std::vector<node_id> origin_of_token(k);
  switch (place) {
    case placement::one_per_node:
      NCDN_EXPECTS(k == n);
      for (std::size_t i = 0; i < k; ++i) {
        origin_of_token[i] = static_cast<node_id>(i);
      }
      break;
    case placement::single_source:
      for (std::size_t i = 0; i < k; ++i) origin_of_token[i] = 0;
      break;
    case placement::random_spread:
      for (std::size_t i = 0; i < k; ++i) {
        origin_of_token[i] = static_cast<node_id>(r.below(n));
      }
      break;
    case placement::adversarial_far: {
      // Concentrate tokens on the last ceil(k / 4) + 1 nodes.
      const std::size_t span = std::max<std::size_t>(1, k / 4);
      for (std::size_t i = 0; i < k; ++i) {
        origin_of_token[i] = static_cast<node_id>(n - 1 - (i % span));
      }
      break;
    }
  }

  // Payloads are distinct and nonzero: tokens are self-identifying d-bit
  // strings (the flooding baselines order by them, and coded blocks use the
  // all-zero string as padding).  d must leave room for k distinct values.
  NCDN_EXPECTS(d_bits >= 64 || k < (std::size_t{1} << std::min<std::size_t>(
                                        d_bits, 63)));
  std::vector<std::uint32_t> seq_of_origin(n, 0);
  std::set<std::vector<std::uint64_t>> seen;  // payload words drawn so far
  dist.tokens.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    token t;
    t.id.origin = origin_of_token[i];
    t.id.seq = seq_of_origin[origin_of_token[i]]++;
    t.payload = bitvec(d_bits);
    do {
      t.payload.randomize(r);
    } while (!t.payload.any() || !seen.insert(t.payload.words()).second);
    dist.tokens.push_back(std::move(t));
  }
  std::sort(dist.tokens.begin(), dist.tokens.end(),
            [](const token& a, const token& b) { return a.id < b.id; });
  for (std::size_t i = 0; i < k; ++i) {
    dist.held_by_node[dist.tokens[i].id.origin].push_back(i);
  }
  return dist;
}

}  // namespace ncdn
