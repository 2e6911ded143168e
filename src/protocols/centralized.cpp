#include "protocols/centralized.hpp"

#include <algorithm>

#include "coding/matrix.hpp"
#include "core/bits.hpp"
#include "protocols/coded_nodes.hpp"

namespace ncdn {

namespace {

/// A bundle of headerless combinations: the wire carries only the payloads
/// (m * d bits); the coefficient rows ride along as genie state.
struct genie_msg {
  std::vector<bitvec> rows;  // full [coeff | payload] rows (genie view)
  std::size_t payload_bits = 0;
  std::size_t bit_size() const noexcept {
    return rows.size() * payload_bits;  // header charged at zero
  }
};

}  // namespace

round_task<protocol_result> centralized_rlnc_machine(
    network& net, token_state& st, centralized_config cfg) {
  const token_distribution& dist = st.distribution();
  const std::size_t n = dist.n;
  const std::size_t k = dist.k();
  const std::size_t d = dist.d_bits;
  NCDN_EXPECTS(cfg.b_bits >= d);
  const std::size_t combos_per_msg = std::max<std::size_t>(1, cfg.b_bits / d);

  // Genie-tracked coders: coefficient dimension k, payload d.  Initial
  // holdings are bucket-0 decodables.
  coded_nodes nodes(n, k, d, make_matrix_backend(matrix_spec{}));
  for (node_id u = 0; u < n; ++u) {
    for (std::size_t t : dist.held_by_node[u]) {
      nodes.seed(u, t, dist.tokens[t].payload);
    }
  }

  protocol_result res;
  const round_t start = net.rounds_elapsed();
  const round_t cap = round_cap(
      cfg.cap_factor *
      static_cast<double>(n + ceil_div(k * d, cfg.b_bits) + 1));

  nodes.start_delays(start);
  while (!nodes.all_complete() && net.rounds_elapsed() - start < cap) {
    net.step<genie_msg>(
        nodes,
        [&](node_id u, rng& r, genie_msg& m) {
          m.payload_bits = d;
          m.rows.clear();
          for (std::size_t c = 0; c < combos_per_msg; ++c) {
            auto combo = nodes.coder(u).make_combination(r);
            if (!combo) return false;  // nothing received yet
            m.rows.push_back(std::move(*combo));
          }
          return true;
        },
        [&](node_id u, const std::vector<const genie_msg*>& inbox) {
          if (inbox.empty()) return;
          for (const genie_msg* m : inbox) {
            for (const bitvec& row : m->rows) nodes.coder(u).insert(row);
          }
          nodes.note_progress(u, nodes.delay_bucket(net.rounds_elapsed() + 1));
        });
    co_await next_round;
  }

  // Reflect decoded tokens into the shared token_state for verification.
  for (node_id u = 0; u < n; ++u) {
    if (nodes.node_complete(u)) {
      for (std::size_t t = 0; t < k; ++t) st.learn(u, t);
    }
  }

  res.rounds = net.rounds_elapsed() - start;
  res.complete = st.all_complete();
  res.completion_round = res.complete ? res.rounds : 0;
  res.max_message_bits = net.max_observed_message_bits();
  res.epochs = 1;
  co_return res;
}

}  // namespace ncdn
