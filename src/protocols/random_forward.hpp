// The `random-forward` gathering primitive (paper §7, Lemma 7.2):
//
//   repeat O(n) times: each node forwards b/d tokens chosen randomly from
//   the (still-in-consideration) tokens it knows; then identify a node with
//   the maximum token count using O(n) rounds of flooding.
//
// Lemma 7.2: afterwards the identified node knows, with high probability,
// either all remaining tokens or at least M = sqrt(bk'/d) of them.
//
// The max-identification flood doubles as the termination and failure
// channel for the gathering-based dissemination algorithms: its messages
// carry (count, uid, fail-bit) and the fail bit lets a node that missed a
// coded broadcast veto the global retirement of that epoch's tokens.
#pragma once

#include "core/machine.hpp"
#include "protocols/common.hpp"

namespace ncdn {

struct gather_config {
  std::size_t b_bits = 0;
  double gather_factor = 1.0;  // gather rounds = ceil(factor * n)
  double flood_factor = 1.0;   // max-flood rounds = ceil(factor * n)
};

struct gather_result {
  node_id leader = 0;            // argmax (in-consideration count, uid)
  std::size_t leader_count = 0;  // its in-consideration known-token count
  round_t rounds = 0;
  bool fail_seen = false;        // some node raised the failure flag
};

/// Gather + max-identification as a round-driven machine (one suspension
/// per communication round).  `fail_bits[u]`, when provided, marks nodes
/// that inject the failure flag into the flood; it must outlive the task.
round_task<gather_result> random_forward_machine(
    network& net, token_state& st, gather_config cfg,
    const std::vector<bool>* fail_bits = nullptr);

}  // namespace ncdn
