// Random linear network coding k-indexed-broadcast (paper §5, Lemma 5.3).
//
// k' indexed items of s bits live at (at least) one node each as vectors
// [e_i | payload_i] over F_q.  Every round, every node broadcasts a uniform
// random linear combination spanning everything it has received; messages
// cost k' * lg q + s bits.  Lemma 5.3: all nodes decode all items within
// O(n + k') rounds with probability 1 - q^{-n} against the adaptive
// adversary, for any field size q >= 2.
//
// The packed GF(2) session is the workhorse used by every gathering-based
// dissemination algorithm (§7); the templated field session serves the
// field-size experiments and the derandomization machinery of §6.
#pragma once

#include <memory>

#include "coding/backend.hpp"
#include "coding/token.hpp"
#include "core/machine.hpp"
#include "dynnet/network.hpp"
#include "gf/field.hpp"
#include "linalg/decoder.hpp"

namespace ncdn {

/// A coded GF(2) message: the row [coefficients | payload].  Matrix cells
/// with sched=feedback piggyback the sender's per-generation rank deficits
/// on every row (empty otherwise); the control plane is modeled as
/// zero-bit, so bit_size stays the row alone.
struct coded_msg {
  bitvec row;
  std::vector<std::uint32_t> feedback;
  std::size_t bit_size() const noexcept { return row.size(); }
  /// Round-teardown hook (dynnet/network.hpp): returns the row's storage
  /// to the session arena once every receiver has consumed its copy.
  void recycle(word_arena& pool) { pool.recycle(std::move(row)); }
};

/// One indexed-broadcast instance over GF(2); per-node coders supplied by a
/// coding_backend (dense by default, draw-for-draw identical to the
/// pre-backend session; see coding/matrix.hpp for sparse and
/// generation/band coding).
class rlnc_session final : public knowledge_view {
 public:
  /// Dense backend (the paper's §5.1 path).
  rlnc_session(std::size_t n, std::size_t items, std::size_t item_bits);
  rlnc_session(std::size_t n, std::size_t items, std::size_t item_bits,
               std::unique_ptr<coding_backend> backend);

  std::size_t items() const noexcept { return items_; }
  std::size_t item_bits() const noexcept { return item_bits_; }
  const coding_backend& backend() const noexcept { return *backend_; }

  /// Gives node u the original item `index` (inserts [e_index | payload]).
  void seed(node_id u, std::size_t index, const bitvec& payload);

  /// Draws outgoing rows from `pool` (null = plain heap rows).  The draws
  /// and the bytes on the wire are identical either way; only the row
  /// storage is recycled round over round.
  void set_arena(word_arena* pool) noexcept { arena_ = pool; }

  /// Runs up to `max_rounds` coding rounds; if stop_early, returns as soon
  /// as every node has full rank (observer-checked).  Returns rounds used.
  round_t run(network& net, round_t max_rounds, bool stop_early);

  /// The same broadcast as a round-driven machine: callers `co_await` it as
  /// a sub-phase and every coding round surfaces to the stepping driver.
  round_task<round_t> run_stepped(network& net, round_t max_rounds,
                                  bool stop_early);

  bool all_complete() const;
  bool node_complete(node_id u) const { return coders_[u]->complete(); }

  /// Backend-independent decode surface.
  bool can_decode(node_id u, std::size_t i) const {
    return coders_[u]->can_decode(i);
  }
  bitvec decode(node_id u, std::size_t i) const {
    return coders_[u]->decode(i);
  }

  /// Tokens node u can decode right now (monotone, backend-independent;
  /// == items() iff node_complete(u)).
  std::size_t decode_progress(node_id u) const {
    return coders_[u]->decode_progress();
  }

  /// Cumulative elimination/combination XOR word-ops across all nodes.
  std::uint64_t xor_word_ops() const {
    std::uint64_t total = 0;
    for (const auto& c : coders_) total += c->xor_word_ops();
    return total;
  }

  /// knowledge_view: adaptive adversaries see the rank of each node's span
  /// (the paper's knowledge-based notion for coding algorithms; decodable
  /// count for generation coding).
  std::size_t node_count() const override { return coders_.size(); }
  std::size_t knowledge(node_id u) const override {
    return coders_[u]->rank();
  }
  std::uint64_t coding_work() const override { return xor_word_ops(); }
  /// Decode-delay histogram: bucket = session-local round a (node, token)
  /// pair first became decodable (seeds in bucket 0), value = pair count.
  const std::vector<std::uint64_t>* decode_delays() const override {
    return &delay_hist_;
  }

 private:
  /// Folds node u's decode-progress delta into the delay histogram at the
  /// current round bucket.  Called after every insert batch (seeding and
  /// round delivery) — the only places progress can move.
  void note_progress(node_id u);
  /// Audit rebuild (NCDN_AUDIT): the recorded delta must equal the number
  /// of per-token can_decode flips since the last observation, and flips
  /// only ever go false -> true.  Mutates audit-only snapshot state; never
  /// called in release builds.
  bool audit_delay_flips(node_id u, std::size_t delta);

  std::size_t items_;
  std::size_t item_bits_;
  std::unique_ptr<coding_backend> backend_;
  std::vector<std::unique_ptr<node_coder>> coders_;
  word_arena* arena_ = nullptr;

  // Decode-delay accounting (tail latency, Costa et al.): when did each
  // (node, token) pair first become decodable?  Tracked as monotone
  // decode_progress deltas — O(n) per round, no per-token scans.
  std::vector<std::size_t> progress_;       // last observed per-node count
  std::vector<std::uint64_t> delay_hist_;   // bucket = session-local round
  round_t delay_round_ = 0;                 // rounds stepped so far
  std::vector<std::vector<char>> audit_decodable_;  // audit-only snapshots
};

/// Generic-field variant (field-size sweeps, §6 derandomization).  Payload
/// is carried as ceil(item_bits / lg q) field symbols.
template <finite_field F>
class field_rlnc_session final : public knowledge_view {
 public:
  using row_type = typename field_decoder<F>::row_type;

  struct message {
    row_type row;
    std::size_t wire_bits = 0;
    std::size_t bit_size() const noexcept { return wire_bits; }
  };

  field_rlnc_session(std::size_t n, std::size_t items, std::size_t item_bits)
      : items_(items),
        item_bits_(item_bits),
        payload_symbols_((item_bits + coefficient_bits<F>() - 1) /
                         coefficient_bits<F>()),
        decoders_(n, field_decoder<F>(items, payload_symbols_)) {}

  std::size_t items() const noexcept { return items_; }
  std::size_t payload_symbols() const noexcept { return payload_symbols_; }
  std::size_t wire_bits() const noexcept {
    return (items_ + payload_symbols_) * coefficient_bits<F>();
  }

  void seed(node_id u, std::size_t index, const row_type& payload_symbols) {
    NCDN_EXPECTS(payload_symbols.size() == payload_symbols_);
    row_type row(items_ + payload_symbols_, F::zero());
    row[index] = F::one();
    std::copy(payload_symbols.begin(), payload_symbols.end(),
              row.begin() + static_cast<std::ptrdiff_t>(items_));
    decoders_[u].insert(std::move(row));
  }

  round_t run(network& net, round_t max_rounds, bool stop_early) {
    round_t used = 0;
    for (; used < max_rounds; ++used) {
      if (stop_early && all_complete()) break;
      net.step<message>(
          *this,
          [&](node_id u, rng& r) -> std::optional<message> {
            auto combo = decoders_[u].random_combination(r);
            if (!combo) return std::nullopt;
            return message{std::move(*combo), wire_bits()};
          },
          [&](node_id u, const std::vector<const message*>& inbox) {
            for (const message* m : inbox) decoders_[u].insert(m->row);
          });
    }
    return used;
  }

  bool all_complete() const {
    for (const auto& d : decoders_) {
      if (!d.complete()) return false;
    }
    return true;
  }

  field_decoder<F>& decoder(node_id u) { return decoders_[u]; }
  const field_decoder<F>& decoder(node_id u) const { return decoders_[u]; }

  std::size_t node_count() const override { return decoders_.size(); }
  std::size_t knowledge(node_id u) const override {
    return decoders_[u].rank();
  }

 private:
  std::size_t items_;
  std::size_t item_bits_;
  std::size_t payload_symbols_;
  std::vector<field_decoder<F>> decoders_;
};

/// Chops a bit payload into field symbols of coefficient_bits<F>() bits.
template <finite_field F>
typename field_decoder<F>::row_type to_symbols(const bitvec& payload) {
  const unsigned cb = coefficient_bits<F>();
  const std::size_t m = (payload.size() + cb - 1) / cb;
  typename field_decoder<F>::row_type out(m, F::zero());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (payload.get(i)) {
      out[i / cb] = static_cast<typename F::value_type>(
          out[i / cb] | (static_cast<std::uint64_t>(1) << (i % cb)));
    }
  }
  return out;
}

}  // namespace ncdn
