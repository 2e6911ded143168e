// Naive indexed dissemination (paper Corollary 7.1).
//
// Nodes self-generate O(log n)-bit token IDs (origin UID + sequence no).
// Each iteration floods the m = Theta(b / log n) smallest unretired IDs for
// O(n) rounds (batched min-flood, so everyone agrees), indexes them by
// sorted order, and RLNC-broadcasts the corresponding m tokens in O(n + m)
// rounds.  Total: O(nk log n / b) rounds — only a log n / d factor better
// than forwarding, which is the paper's motivation for replacing
// flooding-based indexing with *gathering* (greedy/priority-forward).
#pragma once

#include "core/machine.hpp"
#include "protocols/common.hpp"

namespace ncdn {

struct naive_indexed_config {
  std::size_t b_bits = 0;
  double broadcast_factor = 4.0;  // whp constant, see greedy_forward_config
  std::size_t max_iterations = 0;  // 0 = auto
};

/// Round-driven machine form (one suspension per communication round).
round_task<protocol_result> naive_indexed_machine(
    network& net, token_state& st, naive_indexed_config cfg);

}  // namespace ncdn
