// Centralized network coding (paper Corollary 2.6).
//
// A centralized algorithm may give nodes knowledge of past topologies, the
// initial token placement (not the tokens), and shared randomness.  Under
// those powers the two costs that throttle distributed coding vanish:
//
//   * indexing is trivial (the controller knows the placement), and
//   * the coefficient header can be omitted entirely — receivers infer
//     coefficients by replaying the shared randomness against the known
//     topology history.
//
// So every b-bit message carries b/d *headerless* random combinations of
// token vectors, and k-token dissemination completes in order-optimal
// Theta(n) rounds (for kd <= bn).  We realize "coefficients are inferable"
// with a genie: the simulator tracks each transmitted combination's
// coefficient row and hands it to the receiver alongside the d-bit payload,
// charging only the payload bits — exactly the information balance the
// corollary's argument grants.
#pragma once

#include "core/machine.hpp"
#include "protocols/common.hpp"

namespace ncdn {

struct centralized_config {
  std::size_t b_bits = 0;
  double cap_factor = 12.0;  // round cap multiplier on (n + kd/b)
};

/// Round-driven machine form (one suspension per communication round).
round_task<protocol_result> centralized_rlnc_machine(
    network& net, token_state& st, centralized_config cfg);

}  // namespace ncdn
