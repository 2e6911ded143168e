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

#include <algorithm>
#include <memory>
#include <optional>

#include "coding/backend.hpp"
#include "coding/token.hpp"
#include "core/machine.hpp"
#include "dynnet/network.hpp"
#include "gf/field.hpp"
#include "linalg/decoder.hpp"
#include "protocols/coded_nodes.hpp"

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
class rlnc_session final : public coded_nodes {
 public:
  /// Dense backend (the paper's §5.1 path).
  rlnc_session(std::size_t n, std::size_t items, std::size_t item_bits);
  rlnc_session(std::size_t n, std::size_t items, std::size_t item_bits,
               std::unique_ptr<coding_backend> backend);

  /// Draws outgoing rows from `pool` (null = plain heap rows).  The draws
  /// and the bytes on the wire are identical either way; only the row
  /// storage is recycled round over round.
  void set_arena(word_arena* pool) noexcept { arena_ = pool; }

  /// Runs up to `max_rounds` coding rounds; if stop_early, returns as soon
  /// as every node has full rank (observer-checked).  Returns rounds used.
  /// Callers `co_await` it as a sub-phase and every coding round surfaces
  /// to the stepping driver.
  round_task<round_t> run_stepped(network& net, round_t max_rounds,
                                  bool stop_early);

 private:
  word_arena* arena_ = nullptr;
};

/// Bits of payload packed into one field symbol: floor(lg q), so every
/// chunk is an element below q.  Equals coefficient_bits<F>() when q is a
/// power of two; one less for the prime q = 2^61 - 1, whose all-ones
/// 61-bit chunk would otherwise be q itself, i.e. zero.
template <finite_field F>
constexpr unsigned payload_symbol_bits() noexcept {
  unsigned bits = 0;
  while (bits < 63 && (std::uint64_t{1} << (bits + 1)) <= F::order) ++bits;
  return bits;
}

/// Chops a bit payload into field symbols of payload_symbol_bits<F>() bits.
template <finite_field F>
typename field_decoder<F>::row_type to_symbols(const bitvec& payload) {
  const unsigned sb = payload_symbol_bits<F>();
  const std::size_t m = (payload.size() + sb - 1) / sb;
  typename field_decoder<F>::row_type out(m, F::zero());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (payload.get(i)) {
      out[i / sb] = static_cast<typename F::value_type>(
          out[i / sb] | (static_cast<std::uint64_t>(1) << (i % sb)));
    }
  }
  return out;
}

/// Deterministic coefficient advice (§6, Corollary 6.2): the element for
/// (uid, round, slot), a seeded hash shared by all nodes.
template <finite_field F>
typename F::value_type advice_coefficient(std::uint64_t advice_seed,
                                          node_id uid, round_t round,
                                          std::size_t slot) {
  std::uint64_t s = advice_seed ^ (0x9e3779b97f4a7c15ULL * (uid + 1)) ^
                    (0xbf58476d1ce4e5b9ULL * (round + 1)) ^
                    (0x94d049bb133111ebULL * (slot + 1));
  const std::uint64_t h = splitmix64(s);
  if constexpr (F::order == 2) {
    return static_cast<typename F::value_type>(h & 1u);
  } else {
    return static_cast<typename F::value_type>(h % F::order);
  }
}

/// Indexed broadcast over any field F (field-size sweeps, §6
/// derandomization).  Each round a node sends a uniform random combination
/// of its basis or, given an advice seed, the advice combination for its
/// (uid, round) — then the protocol is deterministic given the initial
/// placement.  An item of s bits travels as ceil(s / floor(lg q)) symbols,
/// each charged ceil(lg q) bits on the wire.
template <finite_field F>
class field_rlnc_session final : public knowledge_view {
 public:
  using row_type = typename field_decoder<F>::row_type;

  struct message {
    row_type row;
    std::size_t wire_bits = 0;
    std::size_t bit_size() const noexcept { return wire_bits; }
  };

  field_rlnc_session(std::size_t n, std::size_t items, std::size_t item_bits,
                     std::optional<std::uint64_t> advice_seed = std::nullopt)
      : advice_seed_(advice_seed),
        items_(items),
        item_bits_(item_bits),
        payload_symbols_((item_bits + payload_symbol_bits<F>() - 1) /
                         payload_symbol_bits<F>()),
        decoders_(n, field_decoder<F>(items, payload_symbols_)) {}

  std::size_t items() const noexcept { return items_; }
  std::size_t payload_symbols() const noexcept { return payload_symbols_; }
  std::size_t wire_bits() const noexcept {
    return (items_ + payload_symbols_) * coefficient_bits<F>();
  }

  /// Gives node u the original item `index` (inserts [e_index | payload]).
  void seed(node_id u, std::size_t index, const bitvec& payload) {
    NCDN_EXPECTS(u < decoders_.size());
    NCDN_EXPECTS(index < items_);
    NCDN_EXPECTS(payload.size() == item_bits_);
    row_type row(items_ + payload_symbols_, F::zero());
    row[index] = F::one();
    const row_type sym = to_symbols<F>(payload);
    std::copy(sym.begin(), sym.end(),
              row.begin() + static_cast<std::ptrdiff_t>(items_));
    decoders_[u].insert(std::move(row));
  }

  /// The exact row node u will broadcast in round `r` of an advice session
  /// (advice combination of its current basis) — also what the omniscient
  /// adversary computes.
  std::optional<row_type> prospective_row(node_id u, round_t r) const {
    NCDN_EXPECTS(advice_seed_.has_value());
    const auto& dec = decoders_[u];
    if (dec.rank() == 0) return std::nullopt;
    std::vector<typename F::value_type> coeffs(dec.rank());
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
      coeffs[i] = advice_coefficient<F>(*advice_seed_, u, r, i);
    }
    return dec.combine(coeffs);
  }

  /// Runs up to `max_rounds` coding rounds; if stop_early, returns as soon
  /// as every node has full rank.  Returns rounds used.
  round_t run(network& net, round_t max_rounds, bool stop_early) {
    round_t used = 0;
    for (; used < max_rounds; ++used) {
      if (stop_early && all_complete()) break;
      const round_t r = net.rounds_elapsed();
      net.step<message>(
          *this,
          [&](node_id u, rng& g) -> std::optional<message> {
            auto row = advice_seed_ ? prospective_row(u, r)
                                    : decoders_[u].random_combination(g);
            if (!row) return std::nullopt;
            return message{std::move(*row), wire_bits()};
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

  const field_decoder<F>& decoder(node_id u) const { return decoders_[u]; }

  std::size_t node_count() const override { return decoders_.size(); }
  std::size_t knowledge(node_id u) const override {
    return decoders_[u].rank();
  }

 private:
  std::optional<std::uint64_t> advice_seed_;
  std::size_t items_;
  std::size_t item_bits_;
  std::size_t payload_symbols_;
  std::vector<field_decoder<F>> decoders_;
};

}  // namespace ncdn
