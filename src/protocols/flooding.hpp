// Token-forwarding baseline (Kuhn, Lynch, Oshman; paper Theorem 2.1).
//
// Batched min-flooding: in every round each node broadcasts the B = b/d
// smallest (as d-bit strings) tokens it knows that are not yet finalized.
// The globally smallest B remaining tokens flood unobstructed — any node
// knowing one always ranks it within its own top B — so after a phase of
// n-1 rounds every node knows them, all nodes finalize the same B tokens,
// and ceil(k/B) phases disseminate everything: O(n * ceil(kd/b)) rounds,
// the paper's nkd/b + n bound.
//
// The pipelined variant (for T-stable comparisons) streams tokens instead:
// each round a node sends its B smallest not-yet-streamed tokens, restarting
// the stream when it runs dry, so up to T *distinct* tokens cross each
// stable edge per window.  Kuhn et al. obtain a sound finalization schedule
// for this only under T-interval connectivity (their argument is
// substantially subtler); under per-round dynamics batch-finalization
// agreement genuinely fails, so the pipelined variant here runs until the
// observer sees completion — deliberately crediting the forwarding baseline
// with free perfect termination detection.  That is the quantity the
// T-stable comparison (experiment E8) plots, and it can only flatter the
// baseline the paper's coding algorithms are compared against.
//
// Representation: tokens are ranked once by payload, and each node keeps
// its token sets as k-bit rank masks (`bitvec`, bit r = the r-th smallest
// token) — `active` (known, not yet finalized) and, pipelined only,
// `unsent` (not yet streamed this pass, refilled from `active` when it
// empties).  The lowest B set bits are the tokens a node sends or
// finalizes.
#pragma once

#include "core/machine.hpp"
#include "protocols/common.hpp"

namespace ncdn {

struct flooding_config {
  std::size_t b_bits = 0;     // message budget (>= d)
  bool pipelined = false;     // suppress re-broadcasts within a phase
  double phase_factor = 1.0;  // phase length = ceil(phase_factor * n)
};

/// Round-driven machine form (one suspension per communication round).
round_task<protocol_result> flooding_machine(network& net, token_state& st,
                                             flooding_config cfg);

}  // namespace ncdn
