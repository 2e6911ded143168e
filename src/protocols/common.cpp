#include "protocols/common.hpp"

#include <algorithm>
#include <numeric>

namespace ncdn {

std::vector<std::size_t> payload_order(const token_distribution& dist) {
  std::vector<std::size_t> order(dist.k());
  std::iota(order.begin(), order.end(), std::size_t{0});
  auto less = [&](std::size_t a, std::size_t b) {
    const bitvec& pa = dist.tokens[a].payload;
    const bitvec& pb = dist.tokens[b].payload;
    const auto& wa = pa.words();
    const auto& wb = pb.words();
    for (std::size_t i = 0; i < wa.size(); ++i) {
      if (wa[i] != wb[i]) return wa[i] < wb[i];
    }
    return a < b;
  };
  std::sort(order.begin(), order.end(), less);
  return order;
}

}  // namespace ncdn
