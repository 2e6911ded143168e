#include "core/session.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "content/driver.hpp"
#include "core/bits.hpp"

namespace ncdn {

namespace {

// The session's one parameter namespace: both specs' maps merged.  A key
// given in both must carry one value in both.
param_map merged_params(const protocol_spec& proto,
                        const adversary_spec& adv) {
  param_map params = proto.params;
  for (const auto& [key, value] : adv.params) {
    const auto [it, added] = params.emplace(key, value);
    if (!added && it->second != value) {
      throw std::invalid_argument(
          "ncdn: conflicting values for parameter '" + key +
          "': protocol spec says '" + it->second +
          "', adversary spec says '" + value + "'");
    }
  }
  return params;
}

}  // namespace

session::session(const problem& prob, protocol_spec proto, adversary_spec adv,
                 std::uint64_t seed)
    : session(prob, std::move(proto), std::move(adv), link_spec{}, seed) {}

session::session(const problem& prob, protocol_spec proto, adversary_spec adv,
                 link_spec link, std::uint64_t seed)
    : session(prob, std::move(proto), std::move(adv), std::move(link),
              content_spec{}, seed) {}

session::session(const problem& prob, protocol_spec proto, adversary_spec adv,
                 link_spec link, content_spec content, std::uint64_t seed)
    : proto_spec_(std::move(proto)),
      adv_spec_(std::move(adv)),
      link_spec_(std::move(link)),
      content_spec_(std::move(content)),
      seed_(seed) {
  // One namespace for both factories: problem-level keys reshape `prob`
  // once, the adversary and then the protocol (or content plan) read their
  // keys from the same reader, and a key none of them read is rejected at
  // the end.
  param_map params = merged_params(proto_spec_, adv_spec_);
  param_reader reader(params, "protocol '" + proto_spec_.name + "'");
  prob_ = apply_problem_params(prob, reader);
  if (!(prob_.n >= 2 && prob_.k >= 1 && prob_.d >= 1 && prob_.b >= prob_.d &&
        prob_.t_stability >= 1)) {
    throw std::invalid_argument(
        "ncdn: infeasible problem (need n >= 2, k >= 1, d >= 1, b >= d, "
        "t_stability >= 1)");
  }
  if (prob_.b < bits_for(prob_.n)) {
    throw std::invalid_argument("ncdn: the model requires b >= log2 n (§4.1)");
  }
  // Below 1, the message budget slack * b cannot hold the b-bit messages
  // the protocols are sized to.
  if (!(prob_.slack >= 1.0)) {
    throw std::invalid_argument(
        "ncdn: slack must be >= 1 (the message budget is slack * b plus "
        "framing, and protocols send messages of up to b bits)");
  }
  // Tokens are distinct nonzero d-bit strings (coding/token.cpp).
  if (prob_.d < 64 && prob_.k >= (std::size_t{1} << prob_.d)) {
    throw std::invalid_argument(
        "ncdn: k distinct d-bit tokens need k < 2^d (got k=" +
        std::to_string(prob_.k) + ", d=" + std::to_string(prob_.d) + ")");
  }
  if (prob_.place == placement::one_per_node && prob_.k != prob_.n) {
    throw std::invalid_argument(
        "ncdn: placement one-per-node requires k == n");
  }
  if ((prob_.place == placement::random_spread ||
       prob_.place == placement::adversarial_far) &&
      prob_.k > prob_.n) {
    throw std::invalid_argument(
        "ncdn: placements random-spread and adversarial-far require k <= n "
        "(§4.2)");
  }

  // Seed derivation is kept bit-identical to the historical facade so that
  // every recorded (scenario, seed) cell stays reproducible.
  std::uint64_t seed_state = seed_;
  rng dist_rng(splitmix64(seed_state));
  dist_ = make_distribution(prob_.n, prob_.k, prob_.d, prob_.place, dist_rng);
  adv_ = build_adversary(prob_, adv_spec_.name, reader, seed_ * 7919 + 11);
  // Protocols specified against the §4.1 model (every round's topology
  // connected over all nodes) must not run under adversaries that only
  // keep a live subset connected: their min-flood agreement steps would
  // trip contract aborts mid-run.  Reject the pairing up front instead.
  const protocol_entry& proto_entry =
      protocol_registry::instance().at(proto_spec_.name, "protocol");
  if (proto_entry.needs_full_connectivity && !adv_->full_connectivity()) {
    throw std::invalid_argument(
        "ncdn: protocol '" + proto_spec_.name +
        "' requires full per-round connectivity (§4.1), but adversary '" +
        adv_spec_.name +
        "' only keeps the live node subset connected; pick a "
        "partition-tolerant protocol (rlnc-direct, rlnc-sparse, rlnc-gen, "
        "centralized-rlnc)");
  }
  net_ = std::make_unique<network>(prob_.n, prob_.b, *adv_,
                                   seed_ * 104729 + 13, prob_.slack);
  net_->set_arena(&arena_);
  if (!link_spec_.empty()) {
    // A configured channel may erase or delay deliveries, which breaks
    // every protocol whose correctness rests on reliable synchronous
    // rounds (min-flood agreement, finalization schedules).  Reject the
    // pairing up front, mirroring the full-connectivity gate above.
    if (!proto_entry.loss_tolerant) {
      throw std::invalid_argument(
          "ncdn: protocol '" + proto_spec_.name +
          "' assumes reliable synchronous delivery and cannot run under "
          "link model '" + link_spec_.name +
          "'; pick a loss-tolerant protocol (rlnc-direct, rlnc-sparse, "
          "rlnc-gen, token-forwarding-pipelined)");
    }
    // Its own seed stream, decorrelated from the dist / adversary /
    // network derivations (distinct prime multiplier, same scheme).
    net_->set_link_model(
        build_link_model(link_spec_, seed_ * 15485863 + 17));
  }
  state_ = std::make_unique<token_state>(dist_);
  if (!content_spec_.empty()) {
    // The versioned-content workload: its own seed stream (distinct prime
    // multiplier, same scheme as dist / adversary / network / link), then
    // the multi-epoch driver in place of the one-shot protocol run.  The
    // plan reads the same keys a standalone run of the protocol reads.
    schedule_ =
        build_content_schedule(content_spec_, prob_, seed_ * 32452843 + 19);
    coded_backend_plan plan = build_coded_plan(prob_, proto_spec_.name, reader);
    machine_ = make_protocol_machine(
        [this, plan = std::move(plan)](session_env& env) {
          return run_versioned_content(env, schedule_, plan, adv_.get(),
                                       &content_);
        });
  } else {
    machine_ = build_protocol(prob_, proto_spec_.name, reader);
  }
  const std::vector<std::string> unread = reader.unconsumed();
  if (!unread.empty()) {
    std::string msg = "ncdn: unknown parameter '" + unread.front() +
                      "' (neither protocol '" + proto_spec_.name +
                      "' nor adversary '" + adv_spec_.name + "' takes it";
    const std::vector<std::string> known = reader.recognized();
    if (!known.empty()) msg += "; valid keys: " + join_keys(known);
    msg += ")";
    throw std::invalid_argument(msg);
  }

  net_->set_round_hook(
      [this](const round_traffic& traffic, const knowledge_view* view) {
        collect(traffic, view);
        if (observer_) observer_(scratch_);
      });
  env_.emplace(session_env{prob_, dist_, *net_, *state_, &arena_});
}

void session::set_observer(observer_fn obs) {
  NCDN_EXPECTS(!begun_ && !finished_);
  observer_ = std::move(obs);
}

const run_report& session::report() const {
  NCDN_EXPECTS(finished_ && !failed_);
  return report_;
}

void session::collect(const round_traffic& traffic,
                      const knowledge_view* view) {
  static_cast<round_traffic&>(scratch_) = traffic;
  scratch_.elimination_xors = 0;
  scratch_.decode_delay_active = false;
  scratch_.newly_decodable = 0;

  // A silent round (no view) changes nothing while everyone stays quiet:
  // scratch_ keeps the previous round's knowledge snapshot and aggregates,
  // so long T-stable waits stay O(1) per round, not O(n).
  if (view != nullptr) {
    const std::size_t n = view->node_count();
    const std::uint64_t id = view->view_id();
    // Per-node knowledge may only grow within one view (tokens are never
    // lost).  Multi-phase protocols hand the engine fresh views whose
    // rank-based knowledge restarts at zero, so the audit binds only when
    // the previous stepped round had the same view, whose counts
    // scratch_.knowledge still holds.
    const bool same_view = id == last_view_id_;
    scratch_.knowledge.resize(n);
    std::size_t lo = std::numeric_limits<std::size_t>::max();
    std::size_t hi = 0;
    std::size_t total = 0;
    for (node_id u = 0; u < n; ++u) {
      const std::size_t v = view->knowledge(u);
      NCDN_AUDIT(!same_view || v >= scratch_.knowledge[u]);
      scratch_.knowledge[u] = v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      total += v;
    }
    last_view_id_ = id;
    scratch_.min_knowledge = n == 0 ? 0 : lo;
    scratch_.max_knowledge = hi;
    scratch_.total_knowledge = total;

    std::size_t retired = 0;
    for (node_id u = 0; u < prob_.n; ++u) {
      retired += state_->known_count(u) - state_->remaining_count(u);
    }
    scratch_.tokens_retired = retired;

    // Decode cost and decode events: the view's cumulative counters, diffed
    // against its own last readings (see readings_).  Both counters are
    // monotone per view, so the deltas are exact.
    const std::uint64_t work = view->coding_work();
    const std::vector<std::uint64_t>* delays = view->decode_delays();
    scratch_.decode_delay_active = delays != nullptr;
    if (work != 0 || delays != nullptr) {
      view_readings& seen = readings_[id];
      scratch_.elimination_xors = work - seen.work;
      seen.work = work;
      if (delays != nullptr) {
        // This round's newly decodable pairs: the bucket-wise growth.
        metrics_.decode_delay_active = true;
        seen.delays.resize(delays->size());
        if (metrics_.decode_delay_hist.size() < delays->size()) {
          metrics_.decode_delay_hist.resize(delays->size());
        }
        for (std::size_t b = 0; b < delays->size(); ++b) {
          const std::uint64_t d = (*delays)[b] - seen.delays[b];
          seen.delays[b] = (*delays)[b];
          scratch_.newly_decodable += d;
          metrics_.decode_delay_hist[b] += d;
        }
        metrics_.decode_delay_events += scratch_.newly_decodable;
      }
    }
    metrics_.total_elimination_xors += scratch_.elimination_xors;
  }

  // Traffic conservation, per round: at most one message per node, and
  // the per-round bit total must sit between the largest message and
  // messages * largest (every message is at most max_message_bits).
  NCDN_AUDIT(traffic.messages <= prob_.n);
  NCDN_AUDIT(traffic.message_bits <=
             traffic.messages * traffic.max_message_bits);
  NCDN_AUDIT(traffic.messages == 0 ||
             traffic.message_bits >= traffic.max_message_bits);

  // Channel aggregates (zero and inactive under the reliable default).
  if (traffic.link_active) {
    metrics_.link_active = true;
    metrics_.total_messages_sent += traffic.messages_sent;
    metrics_.total_messages_delivered += traffic.messages_delivered;
    metrics_.total_messages_dropped += traffic.messages_dropped;
    metrics_.messages_in_flight = traffic.messages_in_flight;
    if (metrics_.delivery_latency.size() < traffic.delivery_latency.size()) {
      metrics_.delivery_latency.resize(traffic.delivery_latency.size());
    }
    for (std::size_t i = 0; i < traffic.delivery_latency.size(); ++i) {
      metrics_.delivery_latency[i] += traffic.delivery_latency[i];
    }
    // In-flight queue conservation, cumulative over the session: every
    // copy that entered the channel is delivered, dropped, or in flight.
    NCDN_AUDIT(metrics_.total_messages_sent ==
               metrics_.total_messages_delivered +
                   metrics_.total_messages_dropped +
                   traffic.messages_in_flight);
  }

  metrics_.rounds = traffic.round;
  if (traffic.messages > 0) ++metrics_.rounds_with_traffic;
  metrics_.total_messages += traffic.messages;
  metrics_.total_message_bits += traffic.message_bits;
  metrics_.peak_round_bits =
      std::max(metrics_.peak_round_bits, traffic.message_bits);
  if (metrics_.observed_completion_round == 0 &&
      scratch_.all_complete(dist_.k())) {
    metrics_.observed_completion_round = traffic.round;
  }
}

void session::finish(protocol_result res) {
  static_cast<protocol_result&>(report_) = std::move(res);
  report_.prob = prob_;
  report_.algorithm_name = proto_spec_.name;
  report_.adversary_name = adv_spec_.name;
  report_.seed = seed_;

  // Central completion accounting.  Protocols whose final decode happens
  // outside a stepped round (batch decodes at epoch end) are credited at
  // the round they reported; view-observed completion can only be earlier.
  if (metrics_.observed_completion_round == 0 && report_.complete) {
    metrics_.observed_completion_round =
        report_.completion_round != 0 ? report_.completion_round
                                      : report_.rounds;
  }
  // The last stepped round's knowledge, or token_state's when no round was
  // stepped.
  if (scratch_.knowledge.empty()) {
    scratch_.knowledge.resize(prob_.n);
    for (node_id u = 0; u < prob_.n; ++u) {
      scratch_.knowledge[u] = state_->known_count(u);
    }
  }
  std::size_t lo = std::numeric_limits<std::size_t>::max();
  std::size_t total = 0;
  for (const std::size_t v : scratch_.knowledge) {
    lo = std::min(lo, v);
    total += v;
  }
  metrics_.final_min_knowledge = lo;
  metrics_.final_total_knowledge = total;
  std::size_t retired = 0;
  for (node_id u = 0; u < prob_.n; ++u) {
    retired += state_->known_count(u) - state_->remaining_count(u);
  }
  metrics_.final_tokens_retired = retired;

  // Decode-delay percentiles: integer nearest-rank over the (node, token)
  // pair population the histogram buckets (index = delay in rounds).
  if (metrics_.decode_delay_active && metrics_.decode_delay_events > 0) {
    const std::uint64_t pairs = metrics_.decode_delay_events;
    const std::uint64_t i50 = (50 * (pairs - 1)) / 100;
    const std::uint64_t i90 = (90 * (pairs - 1)) / 100;
    std::uint64_t cum = 0;
    bool have50 = false;
    bool have90 = false;
    for (std::size_t b = 0; b < metrics_.decode_delay_hist.size(); ++b) {
      const std::uint64_t c = metrics_.decode_delay_hist[b];
      if (c == 0) continue;
      cum += c;
      if (!have50 && cum > i50) {
        metrics_.decode_delay_p50 = b;
        have50 = true;
      }
      if (!have90 && cum > i90) {
        metrics_.decode_delay_p90 = b;
        have90 = true;
      }
      metrics_.decode_delay_max = b;
    }
  }

  if (content_.active) {
    // Bytes-on-wire is the session's own traffic aggregate; everything
    // else in the block was accumulated by the epoch driver.
    metrics_.content = content_;
    metrics_.content.wire_bits = metrics_.total_message_bits;
  }

  NCDN_AUDIT(audit_final_consistency());
  report_.metrics = metrics_;
  finished_ = true;
}

bool session::audit_final_consistency() const {
  // (Completion is NOT checked against token_state here: the coded
  // broadcast family decodes inside its own rlnc_session view and never
  // writes token_state back, so the view-agnostic invariants are the
  // traffic aggregates and the completion round's bound.)
  if (metrics_.peak_round_bits > metrics_.total_message_bits) return false;
  if (metrics_.rounds_with_traffic > metrics_.rounds) return false;
  if (metrics_.observed_completion_round > metrics_.rounds) return false;
  return true;
}

bool session::step() {
  if (finished_) return false;
  if (!begun_) {
    machine_->begin(*env_);
    begun_ = true;
  }
  round_plan plan;
  try {
    plan = machine_->advance(*env_);
  } catch (...) {
    finished_ = true;  // the machine is dead; so is the session
    failed_ = true;    // ... and there is no report to hand out
    throw;
  }
  if (plan == round_plan::done) {
    finish(machine_->finish());
    return false;
  }
  return true;
}

const run_report& session::run_to_completion() {
  while (step()) {
  }
  // Via report() so a session whose machine threw (finished-but-failed)
  // trips the contract instead of handing out a never-built record.
  return report();
}

}  // namespace ncdn
