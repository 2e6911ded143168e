#include "coding/backend.hpp"

#include <deque>

#include "core/contracts.hpp"

namespace ncdn {

namespace {

// --- bounded recoding buffer ------------------------------------------------

// Emission recodes over a bounded FIFO of recent wire rows; elimination
// (and hence the adversary-visible rank and the decode surface) stays
// with the wrapped coder.  The buffer never stores the all-zero draw —
// it carries no information and would only dilute the coin-XOR.
class buffered_coder final : public node_coder {
 public:
  buffered_coder(std::unique_ptr<node_coder> inner, std::size_t capacity,
                 bool evict_oldest)
      : inner_(std::move(inner)),
        capacity_(capacity),
        evict_oldest_(evict_oldest) {
    NCDN_EXPECTS(inner_ != nullptr);
    NCDN_EXPECTS(capacity_ >= 1);
  }

  void insert(const bitvec& row) override {
    inner_->insert(row);
    if (row.first_set() == row.size()) return;  // zero row: nothing to recode
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

  std::optional<bitvec> make_combination(rng& r, word_arena* pool) override {
    if (buffer_.empty()) return std::nullopt;
    bitvec out = pool != nullptr ? pool->make(buffer_.front().size())
                                 : bitvec(buffer_.front().size());
    for (const bitvec& row : buffer_) {
      if (r.coin()) {
        out.xor_with(row);
        xor_words_ += out.words().size();
      }
    }
    return out;
  }

  std::size_t rank() const override { return inner_->rank(); }
  bool complete() const override { return inner_->complete(); }
  bool can_decode(std::size_t i) const override {
    return inner_->can_decode(i);
  }
  bitvec decode(std::size_t i) const override { return inner_->decode(i); }
  std::size_t decode_progress() const override {
    return inner_->decode_progress();
  }
  std::uint64_t xor_word_ops() const override {
    return inner_->xor_word_ops() + xor_words_;
  }
  // The buffer constrains only what a node sends, so the feedback surface
  // passes through: reports still describe the inner decoder's deficits
  // (and a feedback schedule's steering goes unused while buffered
  // emission is in charge).
  const std::vector<std::uint32_t>* deficit_report() override {
    return inner_->deficit_report();
  }
  void observe_feedback(const std::vector<std::uint32_t>& deficits) override {
    inner_->observe_feedback(deficits);
  }

 private:
  std::unique_ptr<node_coder> inner_;
  std::size_t capacity_;
  bool evict_oldest_;
  std::deque<bitvec> buffer_;
  std::uint64_t xor_words_ = 0;
};

class buffered_backend final : public coding_backend {
 public:
  buffered_backend(std::unique_ptr<coding_backend> inner, std::size_t capacity,
                   bool evict_oldest)
      : inner_(std::move(inner)),
        capacity_(capacity),
        evict_oldest_(evict_oldest) {
    NCDN_EXPECTS(inner_ != nullptr);
    NCDN_EXPECTS(capacity_ >= 1);
  }
  std::string name() const override { return inner_->name() + "+buffer"; }
  std::unique_ptr<node_coder> make_node_coder(
      std::size_t items, std::size_t item_bits) const override {
    return std::make_unique<buffered_coder>(
        inner_->make_node_coder(items, item_bits), capacity_, evict_oldest_);
  }

 private:
  std::unique_ptr<coding_backend> inner_;
  std::size_t capacity_;
  bool evict_oldest_;
};

}  // namespace

std::unique_ptr<coding_backend> make_buffered_backend(
    std::unique_ptr<coding_backend> inner, std::size_t capacity,
    bool evict_oldest) {
  return std::make_unique<buffered_backend>(std::move(inner), capacity,
                                            evict_oldest);
}

}  // namespace ncdn
