#include "protocols/rlnc_broadcast.hpp"

#include "coding/matrix.hpp"

namespace ncdn {

rlnc_session::rlnc_session(std::size_t n, std::size_t items,
                           std::size_t item_bits)
    : rlnc_session(n, items, item_bits, make_matrix_backend(matrix_spec{})) {}

rlnc_session::rlnc_session(std::size_t n, std::size_t items,
                           std::size_t item_bits,
                           std::unique_ptr<coding_backend> backend)
    : coded_nodes(n, items, item_bits, std::move(backend)) {}

round_task<round_t> rlnc_session::run_stepped(network& net,
                                              round_t max_rounds,
                                              bool stop_early) {
  start_delays(net.rounds_elapsed());
  round_t used = 0;
  for (; used < max_rounds; ++used) {
    if (stop_early && all_complete()) break;
    net.step<coded_msg>(
        *this,
        [&](node_id u, rng& r, coded_msg& m) {
          auto combo = coder(u).make_combination(r, arena_);
          if (!combo) return false;
          m.row = std::move(*combo);
          m.feedback.clear();
          if (const auto* fb = coder(u).deficit_report()) m.feedback = *fb;
          return true;
        },
        [&](node_id u, const std::vector<const coded_msg*>& inbox) {
          if (inbox.empty()) return;
          for (const coded_msg* m : inbox) {
            if (!m->feedback.empty()) coder(u).observe_feedback(m->feedback);
            coder(u).insert(m->row);
          }
          note_progress(u, delay_bucket(net.rounds_elapsed() + 1));
        });
    co_await next_round;
  }
  co_return used;
}

}  // namespace ncdn
