// The (encoder schedule × decoder layout) coding matrix.
//
// Every coded node runs the paper's one step (§5.1, Lemma 5.3): keep what
// arrived and send a random GF(2) combination of it.  A matrix cell names
// the two choices inside that step (sparsenc keeps its decoders and its
// generation scheduler orthogonal the same way; Costa et al. schedule
// transmissions for minimum decoding delay):
//
//   encoder schedule — what a node puts on the air each round:
//     dense       coin per basis row (the paper's §5.1 draw)
//     sparse      Bernoulli(rho) per basis row (Firooz & Roy density knob)
//     systematic  first pass emits the node's own seeded tokens uncoded,
//                 then switches to dense coded rows — receivers decode the
//                 head of the stream immediately instead of waiting for
//                 full rank (the classic systematic-code delay win)
//     feedback    generation layouts only: each outgoing row piggybacks the
//                 sender's per-generation rank deficits (a modeled zero-bit
//                 control plane), and senders steer their generation pick
//                 toward the largest deficit their neighbors reported
//                 instead of drawing uniformly
//     buffer      buf=B: a coin-XOR over a bounded FIFO of the node's B
//                 most recent nonzero arrivals instead of its reduced
//                 basis — the memory-limited relays of practical RLNC
//                 (Firooz & Roy), which recode in place without decoding.
//                 It replaces the sched= schedule, which is still
//                 validated; a buffered node is silent until its first
//                 row is buffered.
//
//   decoder layout — how arrivals are stored, eliminated and queried:
//     span        full span (gen_size = 0, dec=rref): one incremental
//                 bit_decoder, one group covering every token.
//     grouped     generation windows (gen_size >= 1).  dec=rref stores rows
//                 full-width per generation (pivots may sit anywhere, every
//                 XOR is k+d bits wide — the generic baseline banded
//                 elimination is judged against); dec=banded stores them
//                 narrow ([g+w window | payload]) with pivots confined to
//                 the window, so every elimination XOR touches g+w+d bits.
//
// Each node's coder is one object: the layout eliminates each arrival on
// insert, one online Gaussian elimination step per basis it lands in, so
// rank, completion and decode queries are reads and the basis a schedule
// draws from is always reduced.
//
// A matrix_spec names one cell; make_matrix_backend builds it.  The default
// spec is the paper's dense GF(2) code (sched=dense, dec=rref, full span).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "coding/backend.hpp"

namespace ncdn {

/// One cell of the coding matrix plus its token layout.  gen_size == 0 is
/// the full-span layout (one window covering all tokens); gen_size >= 1
/// partitions tokens into generations of gen_size with a band_overlap-token
/// shared band (band_overlap <= gen_size; 0 = disjoint generations).
struct matrix_spec {
  std::string sched = "dense";  // dense | sparse | systematic | feedback
  std::string dec = "rref";     // rref | banded
  double rho = 0.5;             // sparse inclusion density (sched=sparse)
  std::size_t gen_size = 0;     // 0 = full span
  std::size_t band_overlap = 0;
  // Recoding-buffer rows (0 = the sched= schedule emits); a full buffer
  // drops its oldest row, or else its most recently buffered one.
  std::size_t buf = 0;
  bool evict_oldest = true;
};

/// Builds the backend for one matrix cell.  Throws std::invalid_argument
/// (listing the recognized values) for unknown axis names, rho outside
/// (0, 1], band_overlap > gen_size, or a combination that needs a
/// generation layout (dec=banded, sched=feedback) without one.
std::unique_ptr<coding_backend> make_matrix_backend(const matrix_spec& spec);

/// Axis vocabularies for the CLI (`ncdn-run list-schedules`) and error
/// messages.
struct matrix_axis_info {
  const char* name;
  const char* summary;
};
const std::vector<matrix_axis_info>& encoder_schedules();
const std::vector<matrix_axis_info>& decoder_strategies();

}  // namespace ncdn
