// Counting the nodes of a dynamic network whose size nobody knows —
// the motivating application of the dynamic-network model (paper §4.1).
//
// Every node starts knowing only its own UID.  The guess-and-double
// protocol disseminates UIDs inside budgets computed from the current
// estimate and verifies with checksum floods; when the estimate reaches
// [n, 2n) everything checks out and all nodes agree on the exact count.
//
//   $ ./counting [n] [seed]
#include <cstdio>
#include <cstdlib>

#include "dynnet/adversary.hpp"
#include "protocols/counting.hpp"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 45;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  std::printf("counting an unknown-size dynamic network (true n = %zu)\n\n",
              n);

  for (const auto engine :
       {ncdn::counting_engine::flooding, ncdn::counting_engine::coding}) {
    auto adv = ncdn::make_permuted_path(n, seed);
    ncdn::network net(n, 128, *adv, seed + 1);
    ncdn::counting_config cfg;
    cfg.b_bits = 128;
    cfg.engine = engine;
    const ncdn::counting_result res =
        ncdn::run_rounds(ncdn::counting_machine(net, cfg));
    std::printf("  engine=%-9s  count=%zu  correct=%s  attempts=%zu "
                "(final estimate %zu)  rounds=%llu\n",
                engine == ncdn::counting_engine::flooding ? "flooding"
                                                          : "coding",
                res.count, res.correct ? "yes" : "NO", res.attempts,
                res.final_estimate,
                static_cast<unsigned long long>(res.rounds));
    if (!res.correct) return 1;
  }

  std::printf("\nEstimates double 2, 4, 8, ... so the final attempt "
              "dominates the cost; the coding engine inherits the b^2 "
              "message-size speedup of Theorem 7.3 inside each attempt.\n");
  return 0;
}
