// Coding backends: the per-node coder every coded engine steps
// (protocols/coded_nodes.hpp) and the factory that builds it.  The one
// backend is the coding matrix of coding/matrix.hpp, an encoder schedule
// over a decoder layout; make_matrix_backend(matrix_spec{}) is the paper's
// dense GF(2) code (§5.1), and the other cells trade a few extra rounds for
// far cheaper elimination (sparsenc's sparse/GG/BD decoders, Firooz & Roy,
// Costa et al.).
//
// The wire format is shared: every coder emits full-width rows
// [k coefficients | payload], so message sizing, the network budget, and
// the session metrics are backend-independent; only who XORs what changes.
// Every coder reports cumulative 64-bit XOR word-operations — the
// decode-cost axis sweeps trade rounds against (round_metrics
// elimination_xors).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "linalg/bitvec.hpp"

namespace ncdn {

/// Per-node coding state.  Rows are full-width [coeff_dim | payload_bits]
/// wire rows; how they are stored and eliminated is the backend's business.
class node_coder {
 public:
  virtual ~node_coder() = default;

  /// Folds a received wire row into the node's state.
  virtual void insert(const bitvec& row) = 0;

  /// Draws this round's outgoing wire row (nullopt while nothing has been
  /// received; a zero row is a legal draw, as in the dense path).  A
  /// non-null pool supplies the row's storage — the draws and the row's
  /// contents are identical either way (core/arena.hpp).
  virtual std::optional<bitvec> make_combination(rng& r,
                                                 word_arena* pool) = 0;
  std::optional<bitvec> make_combination(rng& r) {
    return make_combination(r, nullptr);
  }

  /// Knowledge exposed to the adaptive adversary: received-span rank for
  /// the full-span backends, decodable-token count for generation coding
  /// (monotone in both cases; == items iff complete).
  virtual std::size_t rank() const = 0;
  virtual bool complete() const = 0;

  virtual bool can_decode(std::size_t i) const = 0;
  /// Payload of token i; requires can_decode(i).
  virtual bitvec decode(std::size_t i) const = 0;

  /// Number of tokens currently decodable (monotone; == items iff
  /// complete).  Uniform across backends — the session's decode-delay
  /// accounting reads this instead of poking a backend-specific decoder.
  virtual std::size_t decode_progress() const = 0;

  /// Cumulative XOR word-ops spent eliminating and combining.
  virtual std::uint64_t xor_word_ops() const = 0;

  /// Feedback surface (matrix cells with sched=feedback): the node's
  /// per-generation rank deficits to piggyback on its outgoing row, and
  /// the fold of a neighbor's piggybacked report.  Coders without a
  /// feedback schedule return nullptr / ignore.
  virtual const std::vector<std::uint32_t>* deficit_report() {
    return nullptr;
  }
  virtual void observe_feedback(const std::vector<std::uint32_t>&) {}
};

/// Factory of per-node coders for one (items, item_bits) instance.
class coding_backend {
 public:
  virtual ~coding_backend() = default;
  virtual std::string name() const = 0;
  virtual std::unique_ptr<node_coder> make_node_coder(
      std::size_t items, std::size_t item_bits) const = 0;
};

}  // namespace ncdn
