#include "coding/matrix.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <optional>
#include <stdexcept>

#include "linalg/bitmatrix.hpp"
#include "linalg/decoder.hpp"

namespace ncdn {

namespace {

constexpr std::size_t npos = ~std::size_t{0};

/// Index of the last set bit below `upto`, or npos if none.
std::size_t last_set_below(const bitvec& v, std::size_t upto) {
  const std::size_t nw = (upto + 63) >> 6;
  for (std::size_t i = nw; i-- > 0;) {
    std::uint64_t word = v.words()[i];
    const std::size_t below = upto - (i << 6);  // bits of this word < upto
    if (below < 64) word &= (1ULL << below) - 1;
    if (word != 0) {
      return (i << 6) + 63 -
             static_cast<std::size_t>(std::countl_zero(word));
    }
  }
  return npos;
}

bitvec make_row(word_arena* pool, std::size_t bits) {
  return pool != nullptr ? pool->make(bits) : bitvec(bits);
}

// --- the node coder ---------------------------------------------------------

class matrix_coder;

/// What a node sends.  Schedules are per-node (they may carry state: the
/// systematic queue, accumulated feedback deficits, the recoding FIFO);
/// `emit` draws one wire row from the coder's reduced groups, charging
/// combination XOR word-ops to *xor_words.
class encoder_schedule {
 public:
  virtual ~encoder_schedule() = default;

  /// Sees every arrival after the layout has eliminated it.
  virtual void note_arrival(const matrix_coder&, const bitvec&) {}

  /// Feedback surface (sched=feedback): the deficits to piggyback on the
  /// node's outgoing row, and a neighbor's piggybacked deficits folded
  /// into the sender-side steering state.
  virtual const std::vector<std::uint32_t>* deficit_report(
      const matrix_coder&) {
    return nullptr;
  }
  virtual void observe_feedback(const std::vector<std::uint32_t>&) {}

  virtual std::optional<bitvec> emit(const matrix_coder& coder, rng& r,
                                     word_arena* pool,
                                     std::uint64_t* xor_words) = 0;
};

/// One node's coder: a decoder layout (span_coder or grouped_coder)
/// eliminates every arrival and answers the queries; the encoder schedule
/// it owns draws what the node sends.  The emission surface (group)
/// exposes the reduced basis as windowed groups so a schedule can draw
/// combinations without knowing the storage layout: the full span is one
/// group spanning all tokens, a generation layout one group per
/// generation.
class matrix_coder : public node_coder {
 public:
  struct group_ref {
    std::size_t start = 0;  // first token of the window
    std::size_t width = 0;  // window width in tokens
    // Rows stored narrow ([width | payload], banded) or full wire width
    // ([items | payload]).
    bool narrow = false;
    const row_block* rows = nullptr;  // reduced basis rows
  };

  // Layouts index tokens with 32-bit pivots; checked before they allocate.
  matrix_coder(std::size_t items, std::size_t item_bits,
               std::unique_ptr<encoder_schedule> sched)
      : items_(items), item_bits_(item_bits), sched_(std::move(sched)) {
    NCDN_EXPECTS(items < pivot_index_bound);
  }

  void insert(const bitvec& row) override {
    eliminate(row);
    sched_->note_arrival(*this, row);
  }
  std::optional<bitvec> make_combination(rng& r, word_arena* pool) override {
    return sched_->emit(*this, r, pool, &emit_xors_);
  }
  std::uint64_t xor_word_ops() const override {
    return elimination_xors() + emit_xors_;
  }
  const std::vector<std::uint32_t>* deficit_report() override {
    return sched_->deficit_report(*this);
  }
  void observe_feedback(const std::vector<std::uint32_t>& deficits) override {
    sched_->observe_feedback(deficits);
  }

  std::size_t items() const noexcept { return items_; }
  std::size_t item_bits() const noexcept { return item_bits_; }

  /// Emission surface: the groups are valid until the next insert.
  virtual bool grouped() const = 0;
  virtual std::size_t group_count() const = 0;
  virtual group_ref group(std::size_t gi) const = 0;

 protected:
  /// Folds one arrival into the reduced basis.
  virtual void eliminate(const bitvec& row) = 0;
  virtual std::uint64_t elimination_xors() const = 0;

 private:
  std::size_t items_;
  std::size_t item_bits_;
  std::unique_ptr<encoder_schedule> sched_;
  std::uint64_t emit_xors_ = 0;
};

// --- decoder layouts --------------------------------------------------------

// Full-span generic elimination: one incremental RREF decoder, one group
// covering every token.
class span_coder final : public matrix_coder {
 public:
  span_coder(std::size_t items, std::size_t item_bits,
             std::unique_ptr<encoder_schedule> sched)
      : matrix_coder(items, item_bits, std::move(sched)),
        dec_(items, item_bits) {}

  std::size_t rank() const override { return dec_.rank(); }
  bool complete() const override { return dec_.complete(); }
  bool can_decode(std::size_t i) const override { return dec_.can_decode(i); }
  bitvec decode(std::size_t i) const override { return dec_.decode(i); }
  std::size_t decode_progress() const override {
    return dec_.decodable_count();
  }

  bool grouped() const override { return false; }
  std::size_t group_count() const override { return 1; }
  group_ref group(std::size_t gi) const override {
    NCDN_EXPECTS(gi == 0);
    return {0, items(), /*narrow=*/false, &dec_.basis()};
  }

 private:
  void eliminate(const bitvec& row) override { dec_.insert(row); }
  std::uint64_t elimination_xors() const override {
    return dec_.xor_word_ops();
  }

  bit_decoder dec_;
};

// Generation-windowed elimination.  Generation j owns the token window
// [j*g, min(j*g + g + w, k)).  eliminate() reduces each arrival into every
// generation whose window holds its support, one online Gaussian
// elimination step per generation, so each basis is a canonical RREF
// sorted by pivot after every insert and the rank and decode queries are
// reads.  rank() is the decodable token count (monotone; == items iff
// complete).  A generation's basis holds at most its width in rows; its
// block is sized to exactly that on the first arrival it keeps.
//
// narrow_ == true is the banded-pivot eliminator: rows are stored
// [window | payload] and pivots never leave the g+w window, so every
// elimination XOR touches g+w+d bits.  narrow_ == false is the generic
// rref baseline over the same generation structure: identical row spaces,
// identical draws, but rows stay full wire width and every XOR pays k+d
// bits — the comparison BENCH_E22 quantifies.
class grouped_coder final : public matrix_coder {
 public:
  grouped_coder(std::size_t items, std::size_t item_bits,
                std::size_t gen_size, std::size_t band_overlap, bool narrow,
                std::unique_ptr<encoder_schedule> sched)
      : matrix_coder(items, item_bits, std::move(sched)),
        narrow_(narrow),
        decoded_(items) {
    NCDN_EXPECTS(gen_size >= 1);
    NCDN_EXPECTS(band_overlap <= gen_size);
    // Clamping to the token count leaves every window unchanged and keeps
    // gen_size + band_overlap from wrapping for sizes near 2^64.
    gen_size_ = std::min(gen_size, items);
    band_overlap = std::min(band_overlap, items);
    for (std::size_t start = 0; start < items; start += gen_size_) {
      generation g;
      g.start = start;
      g.width = std::min(gen_size_ + band_overlap, items - start);
      g.rows = row_block((narrow ? g.width : items) + item_bits, g.width);
      gens_.push_back(std::move(g));
    }
    const std::size_t widest = std::min(gen_size_ + band_overlap, items);
    mask_words_ = words_for_bits(narrow ? widest : items);
    pivot_masks_.assign(gens_.size() * mask_words_, 0);
  }

  std::size_t rank() const override { return decoded_count_; }
  bool complete() const override { return decoded_count_ == items(); }
  bool can_decode(std::size_t i) const override {
    NCDN_EXPECTS(i < items());
    return decoded_.get(i);
  }

  bitvec decode(std::size_t i) const override {
    NCDN_EXPECTS(can_decode(i));
    // Token i lies in its home generation's window and, inside the band
    // overlap, in the previous one's; one of the two holds its singleton
    // row (a singleton RREF row is stable under further reduction).
    std::size_t gi = i / gen_size_;
    const std::uint64_t* row = singleton_row(gi, i);
    if (row == nullptr && gi > 0) row = singleton_row(--gi, i);
    NCDN_ASSERT(row != nullptr);
    const generation& g = gens_[gi];
    bitvec out(item_bits());
    copy_bits(out.data(), 0, row, g.rows.row_words(), coeff_bits(g),
              item_bits());
    return out;
  }

  std::size_t decode_progress() const override { return decoded_count_; }

  bool grouped() const override { return true; }
  std::size_t group_count() const override { return gens_.size(); }
  group_ref group(std::size_t gi) const override {
    NCDN_EXPECTS(gi < gens_.size());
    const generation& g = gens_[gi];
    return {g.start, g.width, narrow_, &g.rows};
  }

 private:
  struct generation {
    std::size_t start = 0;
    std::size_t width = 0;
    row_block rows;  // canonical RREF basis, sorted by pivot
    std::vector<pivot_index> pivots;
  };

  // Pivot columns of a generation's rows: its window, or every token.
  std::size_t coeff_bits(const generation& g) const {
    return narrow_ ? g.width : items();
  }

  // Generation gi's singleton row for token i, or nullptr if it has none.
  const std::uint64_t* singleton_row(std::size_t gi, std::size_t i) const {
    const generation& g = gens_[gi];
    if (i < g.start || i - g.start >= g.width) return nullptr;
    const std::size_t local = narrow_ ? i - g.start : i;
    const auto it = std::lower_bound(g.pivots.begin(), g.pivots.end(), local);
    if (it == g.pivots.end() || *it != local) return nullptr;
    const std::uint64_t* row =
        g.rows.row(static_cast<std::size_t>(it - g.pivots.begin()));
    return no_bits_after(row, local, coeff_bits(g)) ? row : nullptr;
  }

  void eliminate(const bitvec& row) override {
    const std::size_t items = this->items();
    NCDN_EXPECTS(row.size() == items + item_bits());
    const std::size_t lo = row.first_set();
    if (lo >= items) {
      // Zero coefficients: either the all-zero draw (harmless) or a
      // corrupted row with payload but no coefficients (contract).
      NCDN_ASSERT(lo == row.size());
      return;
    }
    const std::size_t hi = last_set_below(row, items);
    const std::size_t words = row.words().size();
    for (std::size_t gi = 0; gi < gens_.size(); ++gi) {
      generation& g = gens_[gi];
      if (g.start <= lo && hi < g.start + g.width) {
        // A generation's rank never exceeds its width: reserve once.
        if (g.rows.empty()) {
          g.rows.reserve_all();
          g.pivots.reserve(g.width);
        }
        with_row_width(g.rows.row_words(), [&](auto width) {
          if (narrow_) {
            std::uint64_t* slim = g.rows.stage();
            copy_bits(slim, 0, row.data(), words, g.start, g.width);
            copy_bits(slim, g.width, row.data(), words, items, item_bits());
          } else {
            g.rows.stage(row.data(), width);
          }
          eliminate_into(width, gi);
        });
      }
    }
  }

  std::uint64_t elimination_xors() const override { return xor_words_; }

  // One online elimination step into generation gi: forward-reduce the
  // arrival staged in its block, drop it if it reduces to zero, clear its
  // pivot from the other rows, and commit it at its pivot's position.  The
  // basis is a canonical RREF before the step, so whether the arrival
  // meets a basis row depends only on its own bit at that row's pivot (and
  // adding a row changes no other pivot bit): the step does exactly the
  // XORs of a batch elimination over (basis, arrival), and re-reducing the
  // resulting basis would cost none.  Both passes mark their rows 64 at a
  // time and then XOR them, with no branch per row.  The forward marks are
  // read from the staged row while its sum builds in a W-word row_regs.
  template <std::size_t W>
  void eliminate_into(row_width<W> width, std::size_t gi) {
    generation& g = gens_[gi];
    std::uint64_t* mask = pivot_masks_.data() + gi * mask_words_;
    const std::size_t w = W != 0 ? W : g.rows.row_words();
    std::uint64_t* base = g.rows.data();
    std::uint64_t* s = base + g.rows.size() * w;
    const pivot_index* pivots = g.pivots.data();
    row_regs<W> sum = make_row_regs<W>(w);
    std::copy_n(s, w, sum.begin());
    std::uint64_t xors = 0;
    const auto meets = [&](std::size_t r) {
      return (s[pivots[r] >> 6] >> (pivots[r] & 63)) & 1;
    };
    const auto reduce = [&](std::size_t r) {
      xor_row(sum.data(), base + r * w, w);
      ++xors;
    };
    for_each_marked(g.rows.size(), meets, reduce);
    std::copy_n(sum.begin(), w, s);
    const std::size_t p = first_set_bit(s, g.rows.row_bits());
    if (p >= coeff_bits(g)) {
      NCDN_ASSERT(p == g.rows.row_bits());  // no pivot inside the payload
      xor_words_ += xors * w;
      return;
    }
    xors += back_substitute(
        width, g.rows, s, p, pivots, mask, coeff_bits(g),
        [&](std::size_t pivot) { note_decoded(g, pivot); });
    xor_words_ += xors * w;
    const auto at = std::lower_bound(g.pivots.begin(), g.pivots.end(), p);
    g.rows.commit(static_cast<std::size_t>(at - g.pivots.begin()));
    g.pivots.insert(at, static_cast<pivot_index>(p));
    mask[p >> 6] |= 1ULL << (p & 63);
    NCDN_AUDIT(is_canonical_rref(g.rows, g.pivots));
    NCDN_AUDIT(audit_decoded());
  }

  // The token behind generation g's singleton row with pivot `pivot`
  // becomes decodable (a token two windows hold counts once).
  void note_decoded(const generation& g, std::size_t pivot) {
    const std::size_t token = narrow_ ? g.start + pivot : pivot;
    if (decoded_.get(token)) return;
    decoded_.set(token);
    ++decoded_count_;
  }

  /// Audit rebuild of the decodable set: the tokens with a singleton row in
  /// some generation are exactly the ones eliminate_into() counted.
  bool audit_decoded() const {
    bitvec fresh(items());
    for (const generation& g : gens_) {
      for (std::size_t r = 0; r < g.rows.size(); ++r) {
        if (no_bits_after(g.rows.row(r), g.pivots[r], coeff_bits(g))) {
          fresh.set(narrow_ ? g.start + g.pivots[r] : g.pivots[r]);
        }
      }
    }
    return fresh == decoded_ && fresh.popcount() == decoded_count_;
  }

  bool narrow_;
  std::size_t gen_size_ = 0;  // clamped to the token count
  std::vector<generation> gens_;
  // Generation gi's pivot mask at gi * mask_words_, one allocation per node.
  std::size_t mask_words_ = 0;
  std::vector<std::uint64_t> pivot_masks_;
  bitvec decoded_;  // tokens with a singleton row in some generation
  std::size_t decoded_count_ = 0;
  std::uint64_t xor_words_ = 0;
};

// --- emission helpers -------------------------------------------------------

// Stores in `out` the sum of the rows whose coin() comes up; returns how
// many.  Every row's coin is drawn first, in row order (the rng stream of
// a coin-then-XOR loop), 64 rows at a time; the picked rows are XORed
// after, into row_regs.
template <class Coin>
std::uint64_t combine_rows(const row_block& rows, std::uint64_t* out,
                           const Coin& coin) {
  return with_row_width(rows.row_words(), [&](auto width) {
    constexpr std::size_t W = decltype(width)::value;
    const std::size_t w = W != 0 ? W : rows.row_words();
    const std::uint64_t* base = rows.data();
    row_regs<W> sum = make_row_regs<W>(w);
    std::uint64_t picked = 0;
    const auto draw = [&](std::size_t) { return coin(); };
    const auto add = [&](std::size_t i) {
      xor_row(sum.data(), base + i * w, w);
      ++picked;
    };
    for_each_marked(rows.size(), draw, add);
    std::copy_n(sum.begin(), w, out);
    return picked;
  });
}

// Coin/Bernoulli-combines one group's reduced rows into a full wire row.
// The dense/sparse choice is made once, outside the per-row coin loop.
// Narrow groups combine narrow then widen (every combination XOR is window
// wide — the generation coder's draw and accounting, verbatim); full-width
// groups XOR wire rows directly.
bitvec combine_group(const matrix_coder& coder,
                     const matrix_coder::group_ref& g, rng& r,
                     word_arena* pool, std::uint64_t* xor_words, bool dense,
                     double rho) {
  const row_block& rows = *g.rows;
  bitvec sum = make_row(pool, rows.row_bits());
  const auto coin = [&r] { return r.coin(); };
  const auto biased = [&r, rho] { return r.bernoulli(rho); };
  const std::uint64_t picked = dense ? combine_rows(rows, sum.data(), coin)
                                     : combine_rows(rows, sum.data(), biased);
  *xor_words += picked * rows.row_words();
  if (!g.narrow) return sum;
  bitvec out = make_row(pool, coder.items() + coder.item_bits());
  out.copy_bits_from(sum, 0, g.width, g.start);
  out.copy_bits_from(sum, g.width, coder.item_bits(), coder.items());
  if (pool != nullptr) pool->recycle(std::move(sum));
  return out;
}

// The dense/sparse draw: full-span layouts coin over the single basis with
// no group pick; generation layouts draw one uniform pick over the live
// generations first (always consumed, even with one candidate — keeps the
// draw stream identical to the historical generation coder).
std::optional<bitvec> coin_emit(const matrix_coder& coder, rng& r,
                                word_arena* pool, std::uint64_t* xor_words,
                                bool dense, double rho) {
  if (!coder.grouped()) {
    const matrix_coder::group_ref g = coder.group(0);
    if (g.rows->empty()) return std::nullopt;
    return combine_group(coder, g, r, pool, xor_words, dense, rho);
  }
  const std::size_t gc = coder.group_count();
  std::size_t live = 0;
  for (std::size_t gi = 0; gi < gc; ++gi) {
    if (!coder.group(gi).rows->empty()) ++live;
  }
  if (live == 0) return std::nullopt;
  std::size_t pick = r.below(live);
  for (std::size_t gi = 0; gi < gc; ++gi) {
    const matrix_coder::group_ref g = coder.group(gi);
    if (g.rows->empty()) continue;
    if (pick-- == 0) {
      return combine_group(coder, g, r, pool, xor_words, dense, rho);
    }
  }
  NCDN_ASSERT(false);  // pick < live
  return std::nullopt;
}

// --- encoder schedules ------------------------------------------------------

class coin_schedule final : public encoder_schedule {
 public:
  coin_schedule(bool dense, double rho) : dense_(dense), rho_(rho) {}
  std::optional<bitvec> emit(const matrix_coder& coder, rng& r,
                             word_arena* pool,
                             std::uint64_t* xor_words) override {
    return coin_emit(coder, r, pool, xor_words, dense_, rho_);
  }

 private:
  bool dense_;
  double rho_;
};

// Systematic first pass: the node's own seeded tokens go out uncoded, one
// per round in seeding order, before the schedule switches permanently to
// dense coded rows.  Receivers decode the uncoded head instantly instead
// of waiting for full rank; the coded tail restores loss resilience.
// Emitting an uncoded row costs no combination XORs (it is a copy, not a
// sum) and consumes no draws.
class systematic_schedule final : public encoder_schedule {
 public:
  // Arrivals before the first emission are the node's own seeds; a
  // singleton coefficient row names the token it carries.
  void note_arrival(const matrix_coder& coder, const bitvec& row) override {
    if (emitted_) return;
    const std::size_t lo = row.first_set();
    if (lo < coder.items() && no_bits_after(row.data(), lo, coder.items()) &&
        std::find(queue_.begin(), queue_.end(), lo) == queue_.end()) {
      queue_.push_back(lo);
    }
  }

  std::optional<bitvec> emit(const matrix_coder& coder, rng& r,
                             word_arena* pool,
                             std::uint64_t* xor_words) override {
    emitted_ = true;
    if (next_ < queue_.size()) {
      const std::size_t i = queue_[next_++];
      bitvec out = make_row(pool, coder.items() + coder.item_bits());
      out.set(i);
      // A pre-emission singleton insert keeps token i decodable forever
      // (RREF singletons are stable), so this decode cannot fail.
      const bitvec payload = coder.decode(i);
      out.copy_bits_from(payload, 0, coder.item_bits(), coder.items());
      return out;
    }
    return coin_emit(coder, r, pool, xor_words, /*dense=*/true, 0.5);
  }

 private:
  std::vector<std::size_t> queue_;  // seeded tokens, in seeding order
  std::size_t next_ = 0;
  bool emitted_ = false;
};

// Feedback-scheduled generation pick: every outgoing row carries the
// sender's per-generation rank deficits (observe_feedback accumulates a
// round's reports; the next emit consumes the batch).  The sender then
// combines within the live generation carrying the largest reported
// deficit (ties -> lowest index) instead of drawing uniformly; with no
// positive deficit on record it falls back to the uniform dense pick.
class feedback_schedule final : public encoder_schedule {
 public:
  const std::vector<std::uint32_t>* deficit_report(
      const matrix_coder& coder) override {
    const std::size_t gc = coder.group_count();
    report_.assign(gc, 0);
    for (std::size_t gi = 0; gi < gc; ++gi) {
      const matrix_coder::group_ref g = coder.group(gi);
      const std::size_t have = g.rows->size();
      report_[gi] =
          static_cast<std::uint32_t>(g.width > have ? g.width - have : 0);
    }
    return &report_;
  }

  void observe_feedback(const std::vector<std::uint32_t>& deficits) override {
    if (pending_.size() < deficits.size()) pending_.resize(deficits.size(), 0);
    for (std::size_t gi = 0; gi < deficits.size(); ++gi) {
      pending_[gi] += deficits[gi];
    }
    fresh_ = true;
  }

  std::optional<bitvec> emit(const matrix_coder& coder, rng& r,
                             word_arena* pool,
                             std::uint64_t* xor_words) override {
    if (fresh_) {
      active_ = pending_;
      std::fill(pending_.begin(), pending_.end(), 0);
      fresh_ = false;
    }
    const std::size_t gc = coder.group_count();
    std::size_t best = npos;
    std::uint64_t best_deficit = 0;
    for (std::size_t gi = 0; gi < gc; ++gi) {
      if (coder.group(gi).rows->empty()) continue;
      const std::uint64_t d = gi < active_.size() ? active_[gi] : 0;
      if (d > best_deficit) {
        best_deficit = d;
        best = gi;
      }
    }
    if (best == npos) {
      return coin_emit(coder, r, pool, xor_words, /*dense=*/true, 0.5);
    }
    return combine_group(coder, coder.group(best), r, pool, xor_words,
                         /*dense=*/true, 0.5);
  }

 private:
  std::vector<std::uint32_t> report_;   // deficit_report's refresh buffer
  std::vector<std::uint64_t> pending_;  // reports since the last emit
  std::vector<std::uint64_t> active_;   // the batch steering this emit
  bool fresh_ = false;
};

// Recoding buffer (buf=B): a FIFO of the node's B most recent nonzero
// arrivals, received or seeded.  Each emission is a coin-XOR over the
// buffered rows in FIFO order, one coin per row.  On overflow the oldest
// (evict_oldest) or the most recently buffered row is dropped.  The
// all-zero arrival carries no information and would only dilute the
// coin-XOR, so it is never buffered.
class buffer_schedule final : public encoder_schedule {
 public:
  buffer_schedule(std::size_t capacity, bool evict_oldest)
      : capacity_(capacity), evict_oldest_(evict_oldest) {
    NCDN_EXPECTS(capacity_ >= 1);
  }

  void note_arrival(const matrix_coder&, const bitvec& row) override {
    if (row.first_set() == row.size()) return;
    if (buffer_.size() == capacity_) {
      if (evict_oldest_) {
        buffer_.pop_front();
      } else {
        buffer_.pop_back();
      }
    }
    buffer_.push_back(row);
    NCDN_AUDIT(buffer_.size() <= capacity_);  // recoder buffer bound
  }

  std::optional<bitvec> emit(const matrix_coder&, rng& r, word_arena* pool,
                             std::uint64_t* xor_words) override {
    if (buffer_.empty()) return std::nullopt;
    bitvec out = make_row(pool, buffer_.front().size());
    for (const bitvec& row : buffer_) {
      if (r.coin()) {
        out.xor_with(row);
        *xor_words += out.words().size();
      }
    }
    return out;
  }

 private:
  std::size_t capacity_;
  bool evict_oldest_;
  std::deque<bitvec> buffer_;
};

std::string recognized(const std::vector<matrix_axis_info>& axis) {
  std::string out;
  for (const matrix_axis_info& info : axis) {
    if (!out.empty()) out += ", ";
    out += info.name;
  }
  return out;
}

class matrix_backend final : public coding_backend {
 public:
  explicit matrix_backend(matrix_spec spec) : spec_(std::move(spec)) {}

  std::string name() const override {
    return "sched:" + spec_.sched + "/dec:" + spec_.dec;
  }

  std::unique_ptr<node_coder> make_node_coder(
      std::size_t items, std::size_t item_bits) const override {
    std::unique_ptr<encoder_schedule> sched;
    if (spec_.buf >= 1) {
      sched = std::make_unique<buffer_schedule>(spec_.buf, spec_.evict_oldest);
    } else if (spec_.sched == "dense") {
      sched = std::make_unique<coin_schedule>(/*dense=*/true, 0.5);
    } else if (spec_.sched == "sparse") {
      sched = std::make_unique<coin_schedule>(/*dense=*/false, spec_.rho);
    } else if (spec_.sched == "systematic") {
      sched = std::make_unique<systematic_schedule>();
    } else {
      sched = std::make_unique<feedback_schedule>();
    }
    if (spec_.gen_size == 0) {
      return std::make_unique<span_coder>(items, item_bits, std::move(sched));
    }
    return std::make_unique<grouped_coder>(items, item_bits, spec_.gen_size,
                                           spec_.band_overlap,
                                           spec_.dec == "banded",
                                           std::move(sched));
  }

 private:
  matrix_spec spec_;
};

}  // namespace

const std::vector<matrix_axis_info>& encoder_schedules() {
  static const std::vector<matrix_axis_info> axis = {
      {"dense", "coin per basis row over the whole received span (default)"},
      {"sparse", "Bernoulli(rho) per basis row; fewer XORs, more rounds"},
      {"systematic",
       "own tokens go out uncoded first, then dense coded rows"},
      {"feedback",
       "generation pick steered by neighbors' reported rank deficits "
       "(generation layouts only)"},
  };
  return axis;
}

const std::vector<matrix_axis_info>& decoder_strategies() {
  static const std::vector<matrix_axis_info> axis = {
      {"rref", "generic gf2 elimination at full wire width (default)"},
      {"banded",
       "banded-pivot elimination: narrow rows, pivots confined to the g+w "
       "window (generation layouts only)"},
  };
  return axis;
}

std::unique_ptr<coding_backend> make_matrix_backend(const matrix_spec& spec) {
  bool sched_known = false;
  for (const matrix_axis_info& info : encoder_schedules()) {
    if (spec.sched == info.name) sched_known = true;
  }
  if (!sched_known) {
    throw std::invalid_argument("ncdn: unknown encoder schedule '" +
                                spec.sched + "' (recognized: " +
                                recognized(encoder_schedules()) + ")");
  }
  bool dec_known = false;
  for (const matrix_axis_info& info : decoder_strategies()) {
    if (spec.dec == info.name) dec_known = true;
  }
  if (!dec_known) {
    throw std::invalid_argument("ncdn: unknown decoder strategy '" +
                                spec.dec + "' (recognized: " +
                                recognized(decoder_strategies()) + ")");
  }
  if (spec.gen_size == 0 && spec.dec == "banded") {
    throw std::invalid_argument(
        "ncdn: dec=banded needs a generation layout (rlnc-gen); recognized "
        "dec values for full-span layouts: rref");
  }
  if (spec.gen_size == 0 && spec.sched == "feedback") {
    throw std::invalid_argument(
        "ncdn: sched=feedback needs a generation layout (rlnc-gen); "
        "recognized sched values for full-span layouts: dense, sparse, "
        "systematic");
  }
  if (spec.sched == "sparse" && !(spec.rho > 0.0 && spec.rho <= 1.0)) {
    throw std::invalid_argument("ncdn: sched=sparse needs rho in (0, 1]");
  }
  if (spec.gen_size >= 1 && spec.band_overlap > spec.gen_size) {
    throw std::invalid_argument(
        "ncdn: generation layouts need band_overlap <= gen_size");
  }
  return std::make_unique<matrix_backend>(spec);
}

}  // namespace ncdn
