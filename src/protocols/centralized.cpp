#include "protocols/centralized.hpp"

#include <algorithm>

#include "core/bits.hpp"
#include "linalg/decoder.hpp"

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

  // Genie-tracked decoders: coefficient dimension k, payload d.
  std::vector<bit_decoder> decoders(n, bit_decoder(k, d));
  for (node_id u = 0; u < n; ++u) {
    for (std::size_t t : dist.held_by_node[u]) {
      bitvec row(k + d);
      row.set(t);
      row.copy_bits_from(dist.tokens[t].payload, 0, d, k);
      decoders[u].insert(std::move(row));
    }
  }
  // Decode-delay accounting: initial holdings are bucket-0 decodables.
  decode_delay_tracker delays;
  delays.reset(n);
  for (node_id u = 0; u < n; ++u) {
    delays.note(u, decoders[u].decodable_count(), 0);
  }

  // Knowledge view over ranks for adaptive adversaries.
  class rank_view final : public knowledge_view {
   public:
    rank_view(const std::vector<bit_decoder>& d,
              const decode_delay_tracker& t)
        : d_(&d), delays_(&t) {}
    std::size_t node_count() const override { return d_->size(); }
    std::size_t knowledge(node_id u) const override {
      return (*d_)[u].rank();
    }
    const std::vector<std::uint64_t>* decode_delays() const override {
      return &delays_->hist;
    }

   private:
    const std::vector<bit_decoder>* d_;
    const decode_delay_tracker* delays_;
  };
  rank_view view(decoders, delays);

  auto all_complete = [&]() {
    return std::all_of(decoders.begin(), decoders.end(),
                       [](const bit_decoder& dec) { return dec.complete(); });
  };

  protocol_result res;
  const round_t start = net.rounds_elapsed();
  const round_t cap = round_cap(
      cfg.cap_factor *
      static_cast<double>(n + ceil_div(k * d, cfg.b_bits) + 1));

  delays.start(start);
  while (!all_complete() && net.rounds_elapsed() - start < cap) {
    net.step<genie_msg>(
        view,
        [&](node_id u, rng& r) -> std::optional<genie_msg> {
          if (decoders[u].rank() == 0) return std::nullopt;
          genie_msg m;
          m.payload_bits = d;
          for (std::size_t c = 0; c < combos_per_msg; ++c) {
            auto combo = decoders[u].random_combination(r);
            if (combo) m.rows.push_back(std::move(*combo));
          }
          if (m.rows.empty()) return std::nullopt;
          return m;
        },
        [&](node_id u, const std::vector<const genie_msg*>& inbox) {
          if (inbox.empty()) return;
          for (const genie_msg* m : inbox) {
            for (const bitvec& row : m->rows) decoders[u].insert(row);
          }
          delays.note(u, decoders[u].decodable_count(),
                      delays.bucket(net.rounds_elapsed() + 1));
        });
    co_await next_round;
  }

  // Reflect decoded tokens into the shared token_state for verification.
  for (node_id u = 0; u < n; ++u) {
    if (decoders[u].complete()) {
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
