// The `priority-forward` dissemination algorithm (paper §7, Theorem 7.5).
//
//   Run greedy-forward until no node gathers b^2/d tokens, then repeat:
//     nodes group their in-consideration tokens into blocks of b/d tokens;
//     each block gets a random O(log n)-bit priority;
//     the ~b globally lowest-priority blocks are selected and indexed;
//     those blocks are broadcast with network-coded indexed-broadcast;
//     broadcast tokens leave consideration.
//
// Lemma 7.4 bounds the iterations by O((1 + kd/b^2) log n).  The cost of
// one iteration is dominated by the *indexing* of the selected priorities:
//
//   indexing_mode::flooding — the paper's explicit fallback: batched
//     min-flooding of (priority, origin, block#) announcements, b/log n
//     finalized per O(n)-round phase, so O(n log n) per iteration and
//     O(nkd log^2 n / b^2 + n log^2 n) total.
//   indexing_mode::charged — stands in for the paper's recursive
//     subroutine "(*)" whose details are deferred to the full version:
//     the selection is computed consistently and charged O(n) rounds,
//     which yields exactly the Theorem 7.5 bound
//     O(log n / b * nkd/b + n log n).  (README, Substitutions.)
#pragma once

#include "core/machine.hpp"
#include "protocols/common.hpp"

namespace ncdn {

enum class indexing_mode { flooding, charged };

struct priority_forward_config {
  std::size_t b_bits = 0;
  indexing_mode indexing = indexing_mode::flooding;
  double broadcast_factor = 4.0;   // coded broadcast rounds / (n + S); same
                                   // whp constant as greedy_forward_config
  double charged_factor = 1.0;     // charged-indexing rounds / n
  std::size_t max_iterations = 0;  // 0 = auto
  // Skip the initial greedy-forward phase (for unit tests of the loop).
  bool skip_greedy_phase = false;
};

struct priority_forward_result : protocol_result {
  std::size_t greedy_epochs = 0;    // epochs spent in the initial phase
  std::size_t priority_iters = 0;   // while-loop iterations (Lemma 7.4)
};

/// Round-driven machine form (one suspension per communication round).
round_task<priority_forward_result> priority_forward_machine(
    network& net, token_state& st, priority_forward_config cfg);

}  // namespace ncdn
