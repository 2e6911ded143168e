// T-stable patch-sharing indexed broadcast (paper §8, Lemma 8.1).
//
// In a T-stable network the topology only changes every T rounds.  The
// paper extracts a T^2 speedup from two composable ideas:
//
//   (1) chunking: a node can talk to the same neighbour T times in a row,
//       so it can ship a vector T times larger; the coefficient header is
//       paid once per bT-bit vector instead of once per b-bit message,
//       which alone buys a factor T (chunked_meta_session below);
//   (2) patching: partition the stable graph into connected patches of
//       diameter ~D around an MIS of G^D, and run share -> pass -> share
//       meta-rounds in which a whole patch jointly computes one random
//       linear combination (pipelined convergecast over the patch tree),
//       passes it across patch boundaries, and shares again — so each
//       meta-round informs Theta(D) fresh nodes at once, the second
//       factor T (tstable_patch_session).  The pass is idea (1) applied
//       to the patch sums: both engines ship vectors through one chunked
//       exchange.
//
// All phases run as real anonymous-broadcast message rounds through the
// network engine: Luby's MIS adapted to D-hop flooding (§8.1), the
// incrementing-broadcast tree construction, and the systolic chunk
// schedules for convergecast/downcast (§8.2.1).  Every round is charged.
//
// Sizing: one vector has K coefficient bits + S payload bits with
// K = S = b*T_vec/2 where T_vec = Theta(T) rounds ship one vector; the
// patch radius D is what the Luby budget affords within half a window
// (the paper picks D = Theta(T / log n) for the same reason).  For small T
// the patch machinery does not fit inside a stability window —
// patch_plan::feasible is false and callers use the chunked session, which
// matches the paper's min{...} algorithm selection in Theorem 2.4.
#pragma once

#include "core/machine.hpp"
#include "dynnet/network.hpp"
#include "protocols/coded_nodes.hpp"

namespace ncdn {

struct patch_plan {
  std::size_t n = 0;
  std::size_t b_bits = 0;
  round_t t_window = 0;   // T (stability window)
  round_t t_vec = 0;      // rounds to ship one (K+S)-bit vector
  std::uint32_t d_patch = 0;  // patch radius D
  std::size_t luby_iters = 0;
  std::size_t items = 0;      // K
  std::size_t item_bits = 0;  // S
  round_t patch_rounds = 0;   // Luby + tree building cost per window
  round_t cycle_rounds = 0;   // one share-pass-share meta-round
  bool feasible = false;      // patching + >= 1 cycle fit in one window
};

/// Computes the sizing above for an (n, b, T) instance.
patch_plan plan_patch_broadcast(std::size_t n, std::size_t b_bits,
                                round_t t_window);

/// Sizing of idea (1) alone: one (K+S)-bit vector ships over t_vec = T/2
/// rounds of b-bit chunks, with K = S = b*t_vec/2.
struct chunked_plan {
  round_t t_vec = 0;
  std::size_t items = 0;      // K
  std::size_t item_bits = 0;  // S
};

/// Computes the chunked sizing for a (b, T) instance.  items_cap (0 = no
/// cap) shrinks K when fewer items are in play (tail epochs).
chunked_plan plan_chunked_broadcast(std::size_t b_bits, round_t t_window,
                                    std::size_t items_cap = 0);

/// Result of the distributed patch construction (§8.1 run as real message
/// rounds): Luby's MIS on G^D via D-hop floods, then the incrementing
/// (depth, leader) wave, parent selection, and child notification.
struct built_patches {
  std::vector<bool> is_leader;
  std::vector<bool> assigned;         // all true on success
  std::vector<node_id> leader_of;
  std::vector<std::uint32_t> depth;   // <= D
  std::vector<node_id> parent;        // self for leaders
  std::vector<std::vector<node_id>> children;  // sorted
};

/// Runs the construction on the *current* stability window as a
/// round-driven machine (every Luby / wave / notification round is a
/// suspension point); consumes plan.patch_rounds message rounds.  Returns
/// false on the whp-rare event that Luby did not converge within its
/// budget (callers skip the window and retry with fresh randomness).
round_task<bool> build_patches_machine(network& net, const patch_plan& plan,
                                       built_patches& out);

/// Full §8 algorithm.  The network's adversary must be (at least) T-stable
/// with the plan's window length.
class tstable_patch_session final : public coded_nodes {
 public:
  explicit tstable_patch_session(const patch_plan& plan);

  const patch_plan& plan() const noexcept { return plan_; }

  /// Runs whole stability windows until all nodes decode (stop_early) or
  /// the round cap; returns rounds consumed.  An awaitable sub-phase.
  round_task<round_t> run_stepped(network& net, round_t max_rounds,
                                  bool stop_early);

  /// Diagnostics for tests/benches.
  std::size_t windows_run() const noexcept { return windows_; }
  std::size_t patching_failures() const noexcept { return patch_failures_; }

 private:
  struct window_patches;  // per-window patch structures (tree, depth, ...)

  round_task<void> share_stepped(network& net, window_patches& wp);

  patch_plan plan_;
  std::size_t windows_ = 0;
  std::size_t patch_failures_ = 0;
};

/// Idea (1) alone: every window ships whole (K+S)-bit vectors chunk by
/// chunk between fixed neighbours; no patches.  Factor-T ablation baseline.
///
/// Also runs under the weaker T-*interval* connectivity (only a spanning
/// tree stable per window, everything else churning): partially-received
/// vectors from churning edges are discarded, and the stable tree carries
/// the progress — a working answer to the §9 question for this engine.
class chunked_meta_session final : public coded_nodes {
 public:
  /// items_cap (0 = no cap) shrinks the coefficient width when fewer items
  /// are in play than the window sizing affords (tail epochs).
  chunked_meta_session(std::size_t n, std::size_t b_bits, round_t t_window,
                       std::size_t items_cap = 0);

  round_t t_vec() const noexcept { return t_vec_; }

  /// Runs up to `max_rounds` rounds, or until every node decodes when
  /// stop_early; returns rounds used.  An awaitable sub-phase.
  round_task<round_t> run_stepped(network& net, round_t max_rounds,
                                  bool stop_early);

 private:
  chunked_meta_session(std::size_t n, std::size_t b_bits, round_t t_window,
                       const chunked_plan& plan);

  std::size_t b_bits_;
  round_t t_window_;
  round_t t_vec_;
};

}  // namespace ncdn
