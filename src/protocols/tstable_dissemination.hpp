// k-token dissemination in T-stable networks (paper §8.3, Theorem 2.4).
//
// The composition mirrors greedy-forward: random-forward gathers tokens to
// an identified leader, which groups them into large meta-tokens and
// broadcasts them — but the broadcast engine now exploits T-stability:
//
//   engine::patch   — the full §8 patch-sharing indexed broadcast
//                     (T^2-speedup machinery; needs the patch plan to fit
//                     inside a stability window),
//   engine::chunked — coefficient-amortizing chunked meta-rounds
//                     (the paper's first idea alone: factor T),
//   engine::plain   — ordinary per-round RLNC blocks (greedy-forward);
//                     the T-independent control,
//   engine::patch_gather — §8.3's third gathering technique for large T:
//                     instead of random-forward, each patch pipelines its
//                     tokens up the patch tree to its leader ("use
//                     pipelining to gather together the tokens in a patch
//                     to blocks of size at most bT at a single node"),
//                     producing O(n/D + kd/bT) leader blocks that are then
//                     indexed by a UID flood and patch-broadcast.
//
// auto_select picks the strongest engine whose sizing is feasible for
// (n, b, T, d) — the analogue of the min{...} over strategies in the
// Theorem 2.4 statement.
//
// Fidelity note: the coded broadcast here runs in observer-stopped mode
// (we measure the round all nodes decoded).  The distributed termination
// is demonstrated by greedy/priority-forward; reusing it here would only
// add O(n) rounds per epoch, and a broadcast cut short by the cap still
// goes through §7's fail-bit veto (README, Substitutions).
#pragma once

#include "core/machine.hpp"
#include "protocols/common.hpp"
#include "protocols/tstable_patch.hpp"

namespace ncdn {

enum class tstable_engine { auto_select, patch, chunked, plain, patch_gather };

struct tstable_config {
  std::size_t b_bits = 0;
  round_t t_stability = 1;  // must match the adversary's window length
  tstable_engine engine = tstable_engine::auto_select;
  double gather_factor = 1.0;
  double flood_factor = 1.0;
  double broadcast_cap_factor = 6.0;  // safety cap multiplier per epoch
  std::size_t max_epochs = 0;
};

struct tstable_result : protocol_result {
  tstable_engine engine_used = tstable_engine::plain;
  std::size_t tokens_per_epoch = 0;  // broadcast capacity of one epoch
};

/// The widest coded vector, in bits, a T-stable coded engine may send: one
/// vector is b * t_vec bits (coefficients plus payload), where t_vec grows
/// with the window (T / 8 for patch, T / 2 for chunked).  Each node's coder
/// and share buffer hold rows of this width, so an unbounded window sizes
/// rows of gigabytes (patch at b = 32 and T just under 2^31 has rows of
/// 2^33 bits, 1 GiB, even for a single item).  2^20 bits (128 KiB) is 256
/// times the widest committed configuration (chunked at b = 32, T = 256,
/// 4,096 bits), and it bounds every other size as well: an engine's item
/// count and item width are each below it, so neither reaches the coders'
/// 32-bit pivot indices and their product cannot wrap a size_t.
inline constexpr std::size_t tstable_max_vector_bits = std::size_t{1} << 20;

/// True iff `engine`'s sizing fits an (n, b, T, d) instance: the patch
/// engines need a feasible patch plan, and every coded engine needs an
/// item that holds a d-bit token and a vector of at most
/// tstable_max_vector_bits.  plain (and auto_select, which falls back to
/// it) always fit.
bool tstable_engine_fits(tstable_engine engine, std::size_t n,
                         std::size_t b_bits, round_t t_stability,
                         std::size_t d);

/// Round-driven machine form (one suspension per communication round).
round_task<tstable_result> tstable_machine(network& net, token_state& st,
                                           tstable_config cfg);

}  // namespace ncdn
