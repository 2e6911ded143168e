// The `greedy-forward` dissemination algorithm (paper §7, Theorem 7.3):
//
//   while tokens remain to be broadcast:
//     random-forward                       (gather, Lemma 7.2)
//     the identified node broadcasts up to b^2/(4d) tokens
//       as b/2 blocks of b/(2d) tokens each, via network-coded
//       indexed-broadcast                  (Lemma 5.3 + §7 block budget)
//     remove all broadcast tokens from consideration
//
// Theorem 7.3: O(nkd/b^2 + nb) rounds with high probability.  The b^2
// denominator — quadratic in the message size — is the paper's headline
// contrast with the Theorem 2.1 forwarding bound's b.
//
// Las Vegas safety: a node that fails to decode an epoch's broadcast raises
// a failure flag in the next epoch's max-identification flood; on a flagged
// epoch every decoded node reinstates that epoch's tokens, so nothing is
// ever permanently lost to a low-probability coding failure.
#pragma once

#include "coding/budget.hpp"
#include "core/machine.hpp"
#include "protocols/common.hpp"

namespace ncdn {

struct greedy_forward_config {
  std::size_t b_bits = 0;
  double gather_factor = 1.0;     // random-forward rounds / n
  double flood_factor = 1.0;      // max-identification rounds / n
  double broadcast_factor = 4.0;  // coded-broadcast rounds / (n + k') — the
                                  // whp constant: the adaptive adversary can
                                  // hold sensing-growth to one node per round
                                  // (p = 1/2), so 2(n+k) is only the mean
  std::size_t max_epochs = 0;     // safety cap; 0 = auto

  // When nonzero, return (early_stop = true) as soon as a clean gather
  // identifies a leader with fewer than this many tokens — the handoff
  // condition of priority-forward's first line ("run greedy-forward until
  // no node gets b^2/d tokens", §7).
  std::size_t stop_when_gather_below = 0;
};

/// Round-driven machine form (one suspension per communication round);
/// priority-forward and the T-stable control arm await it as a sub-phase.
round_task<protocol_result> greedy_forward_machine(
    network& net, token_state& st, greedy_forward_config cfg);

}  // namespace ncdn
