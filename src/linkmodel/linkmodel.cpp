#include "linkmodel/linkmodel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/pair_index.hpp"
#include "core/rng.hpp"

namespace ncdn {

namespace {

// Draw streams.  Every channel decision hashes (link seed, stream tag,
// edge, per-round index) through splitmix64; distinct tags keep the loss,
// delay, chain, and transmit-gate streams independent of each other even
// on the same edge and round.
constexpr std::uint64_t stream_loss = 1;
constexpr std::uint64_t stream_delay = 2;
constexpr std::uint64_t stream_chain = 3;
constexpr std::uint64_t stream_chain_init = 4;
constexpr std::uint64_t stream_tx = 5;

/// The (seed, stream, a) half of link_draw, mixed once for loops that
/// vary only b.
std::uint64_t draw_base(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t a) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  state = splitmix64(state);
  state ^= 0xbf58476d1ce4e5b9ULL * (a + 1);
  return splitmix64(state);
}

std::uint64_t draw_at(std::uint64_t base, std::uint64_t b) {
  std::uint64_t state = base ^ (0x94d049bb133111ebULL * (b + 1));
  return splitmix64(state);
}

/// Stateless hash draw: a pure function of its four inputs (the
/// determinism contract of dynnet/channel.hpp hangs off this).
std::uint64_t link_draw(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t a, std::uint64_t b) {
  return draw_at(draw_base(seed, stream, a), b);
}

double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// unit(h) < p exactly when (h >> 11) < below_unit(p): unit scales that
/// 53-bit integer by 2^-53 without rounding.
std::uint64_t below_unit(double p) {
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

/// Undirected edge key (node ids are 32-bit).
std::uint64_t edge_key(node_id u, node_id v) {
  const node_id lo = u < v ? u : v;
  const node_id hi = u < v ? v : u;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// Directed per-round index: one slot per (round, direction).
std::uint64_t round_slot(round_t round, node_id from, node_id to) {
  return round * 2 + (from < to ? 0 : 1);
}

/// Two-state Gilbert-Elliott erasure chain, one chain per undirected edge.
/// The chain state at round r is a pure function of (seed, edge, r): the
/// initial state is a stationary hash draw, and step s in 1..r maps the
/// state through the hashed draw u for (edge, s).  Each step swaps the two
/// states (u < min(p_good_bad, p_bad_good)), keeps them
/// (u >= max(p_good_bad, p_bad_good)), or sends both to one state (in
/// between: bad when p_bad_good < p_good_bad).  So state_at walks back
/// from r, counting swaps, to the last step that merged the states, and
/// reads the initial draw only when no step did: about
/// 1 / |p_good_bad - p_bad_good| draws per query, in any round order.
/// Equal flip probabilities never merge, so a walk also stops at its
/// edge's memo entry, which only a walk of more than memo_walk steps
/// creates and every later query of that edge refreshes.  Only the cost
/// depends on the memo, never the answer.
class gilbert_elliott_chain {
 public:
  gilbert_elliott_chain(std::uint64_t seed, double p_good_bad,
                        double p_bad_good, double loss_good, double loss_bad)
      : seed_(seed),
        p_good_bad_(p_good_bad),
        p_bad_good_(p_bad_good),
        swap_below_(below_unit(std::min(p_good_bad, p_bad_good))),
        merge_width_(below_unit(std::max(p_good_bad, p_bad_good)) -
                     swap_below_),
        merge_bad_(p_bad_good < p_good_bad),
        loss_good_(loss_good),
        loss_bad_(loss_bad) {}

  bool lost(round_t round, node_id from, node_id to) {
    const std::uint64_t key = edge_key(from, to);
    const bool bad = state_at(key, round);
    NCDN_AUDIT(bad == replayed_state(key, round));
    const double p = bad ? loss_bad_ : loss_good_;
    if (p <= 0.0) return false;
    return unit(link_draw(seed_, stream_loss, key,
                          round_slot(round, from, to))) < p;
  }

 private:
  struct memo_entry {
    round_t round;  // the chain state after step `round` ...
    bool bad;       // ... was this one
  };

  /// A walk back past more than this many steps leaves a memo entry.
  static constexpr round_t memo_walk = 32;

  bool state_at(std::uint64_t key, round_t round) {
    const std::uint32_t at = memo_index_.find(key);
    memo_entry* const memo = at == pair_index::npos ? nullptr : &memo_[at];
    const bool from_memo = memo != nullptr && memo->round <= round;
    const round_t floor = from_memo ? memo->round : 0;
    const std::uint64_t base = draw_base(seed_, stream_chain, key);
    bool swapped = false;
    round_t s = round;
    for (; s > floor; --s) {
      const std::uint64_t u = draw_at(base, s) >> 11;
      if (u - swap_below_ < merge_width_) break;
      swapped ^= u < swap_below_;
    }
    // The state after step s (which merged the states, or is the floor),
    // then the swaps of steps s+1..round.
    const bool below = s > floor   ? merge_bad_
                       : from_memo ? memo->bad
                                   : initial_state(key);
    const bool bad = below != swapped;
    if (memo != nullptr) {
      if (memo->round < round) *memo = {round, bad};
    } else if (round - s > memo_walk) {
      memo_index_.find_or_insert(key,
                                 static_cast<std::uint32_t>(memo_.size()));
      memo_.push_back({round, bad});
    }
    return bad;
  }

  /// Stationary start so the first observed round is not biased good.
  bool initial_state(std::uint64_t key) const {
    const double denom = p_good_bad_ + p_bad_good_;
    const double pi_bad = denom > 0.0 ? p_good_bad_ / denom : 0.0;
    return unit(link_draw(seed_, stream_chain_init, key, 0)) < pi_bad;
  }

  /// The audit oracle: the chain run forward from its initial draw.
  bool replayed_state(std::uint64_t key, round_t round) const {
    bool bad = initial_state(key);
    for (round_t s = 1; s <= round; ++s) {
      const double u = unit(link_draw(seed_, stream_chain, key, s));
      bad = bad ? !(u < p_bad_good_) : u < p_good_bad_;
    }
    return bad;
  }

  std::uint64_t seed_;
  double p_good_bad_;
  double p_bad_good_;
  std::uint64_t swap_below_;   // draws below this swap the states
  std::uint64_t merge_width_;  // the next this many merge them
  bool merge_bad_;
  double loss_good_;
  double loss_bad_;
  // The memo: entries in creation order, found by edge key (never 0).
  std::vector<memo_entry> memo_;
  pair_index memo_index_;
};

/// The full channel: a loss process wrapped with the shared latency and
/// medium layer (see linkmodel.hpp for the param vocabulary).
class channel final : public link_model {
 public:
  channel(std::function<bool(round_t, node_id, node_id)> loss,
          std::uint64_t seed, round_t fixed_delay, round_t max_delay,
          medium_mode medium, bool collisions, double tx_prob)
      : loss_(std::move(loss)),
        seed_(seed),
        fixed_delay_(fixed_delay),
        max_delay_(max_delay),
        medium_(medium),
        collisions_(collisions),
        tx_prob_(tx_prob) {}

  bool lost(round_t round, node_id from, node_id to) override {
    return loss_(round, from, to);
  }

  round_t delay(round_t round, node_id from, node_id to) override {
    round_t d = fixed_delay_;
    if (max_delay_ != 0) {
      const std::uint64_t h = link_draw(seed_, stream_delay,
                                        edge_key(from, to),
                                        round_slot(round, from, to));
      // At max_delay_ = 2^64 - 1 the span wraps to 0: every draw is in it.
      const round_t span = max_delay_ + 1;
      d = span == 0 ? h : h % span;
    }
    // A due round past 2^64 - 1 would wrap to an early one; the last
    // round stands in for "never".
    return std::min(d, ~round_t{0} - round);
  }

  bool transmits(round_t round, node_id u) override {
    if (tx_prob_ >= 1.0) return true;
    return unit(link_draw(seed_, stream_tx, u, round)) < tx_prob_;
  }

  medium_mode medium() const override { return medium_; }
  bool collisions() const override { return collisions_; }

 private:
  std::function<bool(round_t, node_id, node_id)> loss_;
  std::uint64_t seed_;
  round_t fixed_delay_;
  round_t max_delay_;  // 0 = fixed delay; else uniform in [0, max_delay_]
  medium_mode medium_;
  bool collisions_;
  double tx_prob_;
};

}  // namespace

void register_builtins(link_registry& reg) {
  reg.add({"perfect", "reliable erasure-free links (latency/medium only)",
           [](param_reader&, std::uint64_t) {
             return [](round_t, node_id, node_id) { return false; };
           }});
  reg.add({"bernoulli", "iid per-copy erasures with probability p [p]",
           [](param_reader& params, std::uint64_t seed) {
             const double p = checked_probability(
                 "link model 'bernoulli'", "p", params.real("p", 0.1));
             return [p, seed](round_t round, node_id from, node_id to) {
               if (p <= 0.0) return false;
               return unit(link_draw(seed, stream_loss, edge_key(from, to),
                                     round_slot(round, from, to))) < p;
             };
           }});
  reg.add({"gilbert-elliott",
           "two-state bursty erasures [p_good_bad, p_bad_good, loss_good, "
           "loss_bad]",
           [](param_reader& params, std::uint64_t seed) {
             const std::string ctx = "link model 'gilbert-elliott'";
             const double p_gb = checked_probability(
                 ctx, "p_good_bad", params.real("p_good_bad", 0.1));
             const double p_bg = checked_probability(
                 ctx, "p_bad_good", params.real("p_bad_good", 0.3));
             const double loss_good = checked_probability(
                 ctx, "loss_good", params.real("loss_good", 0.02));
             const double loss_bad = checked_probability(
                 ctx, "loss_bad", params.real("loss_bad", 0.6));
             auto chain = std::make_shared<gilbert_elliott_chain>(
                 seed, p_gb, p_bg, loss_good, loss_bad);
             return [chain](round_t round, node_id from, node_id to) {
               return chain->lost(round, from, to);
             };
           }});
}

std::unique_ptr<link_model> build_link_model(const link_spec& spec,
                                             std::uint64_t seed) {
  NCDN_EXPECTS(!spec.empty());
  const link_entry& entry =
      link_registry::instance().at(spec.name, "link model");
  const std::string context = "link model '" + spec.name + "'";
  param_reader params(spec.params, context);
  auto loss = entry.make_loss(params, seed);

  const round_t fixed_delay = params.u64("delay", 0);
  const round_t max_delay = params.u64("delay_max", 0);
  if (fixed_delay != 0 && max_delay != 0) {
    throw std::invalid_argument("ncdn: " + context +
                                " takes delay or delay_max, not both");
  }
  medium_mode medium = medium_mode::full;
  const std::string medium_name = params.str("medium", "full");
  if (medium_name == "full") {
    medium = medium_mode::full;
  } else if (medium_name == "half-duplex") {
    medium = medium_mode::half_duplex;
  } else if (medium_name == "broadcast") {
    medium = medium_mode::broadcast;
  } else {
    throw std::invalid_argument("ncdn: " + context +
                                " needs medium=full|half-duplex|broadcast, "
                                "got '" + medium_name + "'");
  }
  const bool collisions = params.flag("collisions", true);
  const double tx_prob = checked_probability(
      context, "tx_prob", params.real("tx_prob", 1.0), false);
  params.expect_fully_consumed();
  return std::make_unique<channel>(std::move(loss), seed, fixed_delay,
                                   max_delay, medium, collisions, tx_prob);
}

link_spec parse_link_spec(const std::string& text) {
  return parse_spec<link_spec>(text, "--link");
}

}  // namespace ncdn
