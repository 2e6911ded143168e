// The (encoder schedule × decoder strategy) coding matrix.
//
// PR 3's backends coupled *what a node sends* to *how it eliminates*: the
// dense/sparse coders emitted from one full-span RREF basis, and the
// generation coder both stored narrow rows and drew banded combinations.
// This header splits the two concerns (sparsenc keeps five decoders and a
// generation scheduler orthogonal; Costa et al. schedule transmissions for
// minimum decoding delay):
//
//   encoder_schedule — what a node puts on the air each round:
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
//
//   decoder_strategy — how arrivals are eliminated and queried:
//     rref        generic gf2 elimination.  Full-span layouts keep one
//                 incremental bit_decoder; generation layouts store rows
//                 full-width per generation (pivots may sit anywhere,
//                 every XOR is k+d bits wide — the generic baseline banded
//                 elimination is judged against).
//     banded      generation layouts only: rows are stored narrow
//                 ([g+w window | payload]) and pivots never leave the
//                 window, so every elimination XOR touches g+w+d bits
//                 instead of k+d (PR 3's generation coder, now one cell of
//                 the matrix).
//
// Every strategy eliminates each arrival on insert, one online Gaussian
// elimination step per basis it lands in, so rank, completion and decode
// queries are reads and the basis a schedule draws from is always reduced.
//
// A matrix_spec names one cell; make_matrix_backend builds it.  The default
// spec is the paper's dense GF(2) code (sched=dense, dec=rref, full span).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coding/backend.hpp"
#include "linalg/row_block.hpp"

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
};

/// How arrivals are stored, eliminated, and queried.  The emission surface
/// (group) exposes the reduced basis as windowed groups so a schedule can
/// draw combinations without knowing the storage layout: full-span
/// strategies report one group spanning all tokens, generation strategies
/// one group per generation.
class decoder_strategy {
 public:
  struct group_ref {
    std::size_t start = 0;  // first token of the window
    std::size_t width = 0;  // window width in tokens
    // Rows stored narrow ([width | payload], banded) or full wire width
    // ([items | payload]).
    bool narrow = false;
    const row_block* rows = nullptr;  // reduced basis rows
  };

  virtual ~decoder_strategy() = default;

  virtual void insert(const bitvec& row) = 0;
  /// Adversary-visible knowledge: span rank for full-span rref, decodable
  /// token count for generation layouts (monotone; == items iff complete).
  virtual std::size_t rank() const = 0;
  virtual bool complete() const = 0;
  virtual bool can_decode(std::size_t i) const = 0;
  virtual bitvec decode(std::size_t i) const = 0;
  /// Number of tokens currently decodable (monotone).
  virtual std::size_t decode_progress() const = 0;
  virtual std::uint64_t xor_word_ops() const = 0;

  virtual std::size_t items() const = 0;
  virtual std::size_t item_bits() const = 0;

  /// Emission surface: the groups are valid until the next insert.
  virtual bool grouped() const = 0;
  virtual std::size_t group_count() const = 0;
  virtual group_ref group(std::size_t gi) const = 0;
};

/// What a node sends.  Schedules are per-node (they may carry state: the
/// systematic queue, accumulated feedback deficits); `emit` draws one wire
/// row from the decoder's reduced groups, charging combination XOR
/// word-ops to *xor_words.
class encoder_schedule {
 public:
  virtual ~encoder_schedule() = default;

  /// True if the schedule wants note_seed for pre-emission singleton
  /// inserts (a node's own seeded tokens).
  virtual bool wants_seed_notes() const { return false; }
  virtual void note_seed(std::size_t /*index*/) {}

  /// Feedback surface (sched=feedback): deficits a neighbor piggybacked on
  /// a received row, folded into the sender-side steering state.
  virtual bool wants_feedback() const { return false; }
  virtual void observe_feedback(const std::vector<std::uint32_t>&) {}

  virtual std::optional<bitvec> emit(const decoder_strategy& dec, rng& r,
                                     word_arena* pool,
                                     std::uint64_t* xor_words) = 0;
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
