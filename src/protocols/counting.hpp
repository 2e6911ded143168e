// Counting the nodes of a dynamic network (paper §4.1 remark and the
// motivating application of [9]): no node knows n; all discover it.
//
// Guess-and-double: with estimate n̂, run n̂-token dissemination of the
// node UIDs inside a round budget computed from n̂ alone, then verify by
// flooding (count, set-checksum) pairs: if every node saw the same UID set
// of size <= n̂, the estimate was sufficient and the count is |set|;
// otherwise everyone doubles n̂ and restarts (budgets depend only on n̂, so
// all nodes stay in lockstep without knowing n).  Since budgets grow
// geometrically, the final attempt dominates and the total cost is within
// a constant of a single run at n̂ in [n, 2n) — the paper's argument.
//
// Two dissemination engines exhibit the paper's point that counting
// inherits the coding speedup:
//   flooding — batched UID min-flood, O(n̂^2 d / b) rounds per attempt;
//   coding   — gather + network-coded block broadcast (greedy-forward
//              structure), O(n̂^2 d / b^2 + n̂ b) rounds per attempt; the
//              broadcast is an rlnc_session, so adaptive adversaries see
//              its ranks.
//
// Substitution (README): verification compares 64-bit set checksums,
// a with-high-probability equality test standing in for the paper's exact
// (and more intricate) k-verification; nodes output-and-continue, so a
// premature local output is corrected by the time the protocol terminates.
#pragma once

#include <cstdint>

#include "core/machine.hpp"
#include "dynnet/network.hpp"

namespace ncdn {

enum class counting_engine { flooding, coding };

struct counting_config {
  std::size_t b_bits = 0;
  counting_engine engine = counting_engine::flooding;
  std::size_t uid_bits = 32;  // fixed UID width (nodes cannot size by n)
  double safety = 2.0;        // budget multiplier
  std::size_t max_attempts = 48;
};

struct counting_result {
  round_t rounds = 0;
  std::size_t count = 0;       // agreed count after the final attempt
  bool correct = false;        // count == true n at every node
  std::size_t attempts = 0;    // estimates tried (final included)
  std::size_t final_estimate = 0;
};

/// The guess-and-double protocol as a round machine: every flood round and
/// every coded-broadcast round ends at a round boundary.  Drive it with
/// `run_rounds(counting_machine(net, cfg))`.
round_task<counting_result> counting_machine(network& net,
                                             counting_config cfg);

}  // namespace ncdn
