#include "protocols/rlnc_broadcast.hpp"

#include "coding/matrix.hpp"

namespace ncdn {

rlnc_session::rlnc_session(std::size_t n, std::size_t items,
                           std::size_t item_bits)
    : rlnc_session(n, items, item_bits, make_matrix_backend(matrix_spec{})) {}

rlnc_session::rlnc_session(std::size_t n, std::size_t items,
                           std::size_t item_bits,
                           std::unique_ptr<coding_backend> backend)
    : items_(items),
      item_bits_(item_bits),
      backend_(std::move(backend)) {
  NCDN_EXPECTS(items >= 1);
  NCDN_EXPECTS(item_bits >= 1);
  NCDN_EXPECTS(backend_ != nullptr);
  delays_.reset(n);
  coders_.reserve(n);
  for (std::size_t u = 0; u < n; ++u) {
    coders_.push_back(backend_->make_node_coder(items, item_bits));
  }
}

void rlnc_session::seed(node_id u, std::size_t index, const bitvec& payload) {
  NCDN_EXPECTS(u < coders_.size());
  NCDN_EXPECTS(index < items_);
  NCDN_EXPECTS(payload.size() == item_bits_);
  bitvec row(items_ + item_bits_);
  row.set(index);
  row.copy_bits_from(payload, 0, item_bits_, items_);
  coders_[u]->insert(row);
  note_progress(u);
}

round_task<round_t> rlnc_session::run_stepped(network& net,
                                              round_t max_rounds,
                                              bool stop_early) {
  round_t used = 0;
  for (; used < max_rounds; ++used) {
    if (stop_early && all_complete()) break;
    ++delay_round_;  // arrivals this round land in the next delay bucket
    net.step<coded_msg>(
        *this,
        [&](node_id u, rng& r) -> std::optional<coded_msg> {
          auto combo = coders_[u]->make_combination(r, arena_);
          if (!combo) return std::nullopt;
          coded_msg m{std::move(*combo), {}};
          if (const auto* fb = coders_[u]->deficit_report()) m.feedback = *fb;
          return m;
        },
        [&](node_id u, const std::vector<const coded_msg*>& inbox) {
          if (inbox.empty()) return;
          for (const coded_msg* m : inbox) {
            if (!m->feedback.empty()) {
              coders_[u]->observe_feedback(m->feedback);
            }
            coders_[u]->insert(m->row);
          }
          note_progress(u);
        });
    co_await next_round;
  }
  co_return used;
}

bool rlnc_session::all_complete() const {
  for (const auto& c : coders_) {
    if (!c->complete()) return false;
  }
  return true;
}

void rlnc_session::note_progress(node_id u) {
  const std::size_t p = coders_[u]->decode_progress();
  // The recorded delta must equal the can_decode flips since last time.
  NCDN_AUDIT(audit_delay_flips(u, p - delays_.progress[u]));
  delays_.note(u, p, delay_round_);
}

bool rlnc_session::audit_delay_flips(node_id u, std::size_t delta) {
  if (audit_decodable_.empty()) audit_decodable_.resize(coders_.size());
  auto& snap = audit_decodable_[u];
  if (snap.empty()) snap.assign(items_, 0);
  std::size_t flips = 0;
  for (std::size_t i = 0; i < items_; ++i) {
    const bool now = coders_[u]->can_decode(i);
    if (now && snap[i] == 0) {
      ++flips;
      snap[i] = 1;
    } else if (!now && snap[i] != 0) {
      return false;  // decodability regressed — never legal
    }
  }
  return flips == delta;
}

}  // namespace ncdn
