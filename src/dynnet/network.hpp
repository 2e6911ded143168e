// The synchronous round engine of the dynamic network model (paper §4.1).
//
// One `step` is one communication round:
//   1. the adversary sees node state (via the protocol's knowledge_view)
//      and commits a connected topology G(t);
//   2. every node chooses an O(b)-bit message *without* seeing G(t)
//      (anonymous broadcast — the make-message callback receives only the
//      node id and that node's private random stream);
//   3. every node receives the messages of its G(t)-neighbours.
//
// The engine enforces the message-size budget: every message type reports
// `bit_size()`, and the engine asserts it stays within message_bit_limit
// (slack * b plus O(log n) framing), recording the maximum for the
// experiment tables.  Protocols are free-running state machines that call
// step() once per round — multi-phase algorithms (gather, flood,
// broadcast, ...) read naturally as sequential code.
//
// Each round, stepped or silent, the engine fills one `round_traffic`
// record (core/metrics.hpp): messages and bits on the air, |E(t)| and the
// channel's copy accounting.  The round hook receives it with the view
// the protocol stepped with; the session extends it into the
// `round_metrics` its observer sees.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <typeinfo>
#include <vector>

#include "core/arena.hpp"
#include "core/contracts.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "dynnet/adversary.hpp"
#include "dynnet/channel.hpp"
#include "dynnet/graph.hpp"

namespace ncdn {

/// The largest message, in bits, the round model admits for n nodes and
/// message parameter b: slack * b, the constant hidden in the paper's
/// "messages of size O(b)", plus a fixed framing allowance of
/// 8 * bits_for(n) + 64 bits (phase/epoch tag plus item count, the
/// O(log n) bookkeeping those messages absorb).  network::step asserts
/// every message against it; protocol factories check their wire sizes
/// against it before a run.
double message_bit_limit(std::size_t n, std::size_t b_bits, double slack);

template <class M>
concept sized_message = requires(const M& m) {
  { m.bit_size() } -> std::convertible_to<std::size_t>;
};

class network {
 public:
  /// b_bits: the message-size parameter b; slack: the constant hidden in
  /// the paper's "messages of size O(b)" (§7 explicitly ignores factors
  /// of 2, so the default budget is 2b plus a logarithmic allowance for
  /// epoch framing).
  network(std::size_t n, std::size_t b_bits, adversary& adv,
          std::uint64_t seed, double slack = 2.0);

  std::size_t node_count() const noexcept { return n_; }
  round_t rounds_elapsed() const noexcept { return round_; }
  std::size_t max_observed_message_bits() const noexcept {
    return max_message_bits_;
  }

  rng& node_rng(node_id u) noexcept {
    NCDN_EXPECTS(u < n_);
    return node_rngs_[u];
  }

  /// A hook invoked after every round (including each silent round) with
  /// the round's traffic record and the knowledge_view the protocol
  /// stepped with (post-delivery state; null for silent rounds).  It
  /// observes but must not mutate protocol state; it is how the session
  /// drives per-round observers without the protocols knowing.
  using round_hook =
      std::function<void(const round_traffic&, const knowledge_view*)>;
  /// Installs the hook; pass an empty function to remove it.
  void set_round_hook(round_hook hook) { round_hook_ = std::move(hook); }

  /// Installs a per-edge channel (src/linkmodel) between the adversary's
  /// topology and the protocol: erasures, in-flight latency, medium
  /// discipline.  Must be set before the first step; null (the default)
  /// keeps the historical reliable zero-latency path, draw for draw.
  void set_link_model(std::unique_ptr<link_model> link) {
    NCDN_EXPECTS(round_ == 0);
    link_ = std::move(link);
    flight_.resize(n_);
  }
  bool link_active() const noexcept { return link_ != nullptr; }

  /// Round-teardown storage pool (the session's; null = no pooling).  When
  /// set, message types exposing `recycle(word_arena&)` hand their heavy
  /// buffers back after every receiver has been served, so the next
  /// round's rows reuse them instead of reallocating.
  void set_arena(word_arena* pool) noexcept { arena_ = pool; }
  word_arena* arena() const noexcept { return arena_; }
  /// Copies currently sitting in the delivery queue.
  std::size_t messages_in_flight() const noexcept { return in_flight_; }

  /// Runs one synchronized round.
  ///
  /// MakeMsg: node_id, rng& -> std::optional<Msg>  (nullopt = silent node)
  /// Deliver: node_id, const std::vector<const Msg*>& -> void
  template <class Msg, class MakeMsg, class Deliver>
    requires sized_message<Msg>
  void step(const knowledge_view& view, MakeMsg&& make, Deliver&& deliver) {
    const graph& g = adv_.topology(round_, view);
    NCDN_ASSERT(g.order() == n_);
    // §4.1: adversaries promising full connectivity must commit a
    // connected G(t) every round (churn-style ones keep only their live
    // set connected and audit that themselves).
    NCDN_AUDIT(!adv_.full_connectivity() || g.is_connected());

    round_traffic traffic;
    traffic.topology_edges = g.edge_count();
    messages_of_round<Msg> msgs;
    msgs.reserve(n_);
    for (node_id u = 0; u < n_; ++u) {
      msgs.push_back(make(u, node_rngs_[u]));
      if (msgs.back().has_value()) {
        const std::size_t bits = msgs.back()->bit_size();
        NCDN_ASSERT(static_cast<double>(bits) <= bit_limit_);
        max_message_bits_ = std::max(max_message_bits_, bits);
      }
    }

    if (link_ == nullptr) {
      // The historical reliable path, untouched: every made message is
      // broadcast and every neighbour copy is delivered within the round.
      for (node_id u = 0; u < n_; ++u) {
        if (!msgs[u].has_value()) continue;
        const std::size_t bits = msgs[u]->bit_size();
        ++traffic.messages;
        traffic.message_bits += bits;
        traffic.max_message_bits = std::max(traffic.max_message_bits, bits);
      }
      std::vector<const Msg*> inbox;
      for (node_id u = 0; u < n_; ++u) {
        inbox.clear();
        for (node_id v : g.neighbors(u)) {
          if (msgs[v].has_value()) inbox.push_back(&*msgs[v]);
        }
        deliver(u, static_cast<const std::vector<const Msg*>&>(inbox));
      }
    } else {
      step_channel<Msg>(g, view.view_id(), traffic, msgs, deliver);
    }
    // All receivers are served; recycle the round's message buffers into
    // the session arena (delayed channel copies hold their own shared
    // heap copy, so this never touches an in-flight payload).
    if constexpr (requires(Msg& m, word_arena& a) { m.recycle(a); }) {
      if (arena_ != nullptr) {
        for (auto& m : msgs) {
          if (m.has_value()) m->recycle(*arena_);
        }
      }
    }
    ++round_;
    if (round_hook_) {
      traffic.round = round_;
      round_hook_(traffic, &view);
    }
  }

  /// Rounds in which all nodes stay silent (protocol-internal waiting while
  /// staying synchronized); still counts toward the running time.  Copies
  /// already in flight simply age — they come due at the next stepped
  /// round.
  void silent_rounds(round_t count) {
    if (!round_hook_) {
      round_ += count;
      return;
    }
    for (round_t i = 0; i < count; ++i) {
      ++round_;
      round_traffic traffic;
      traffic.round = round_;
      traffic.silent = true;
      if (link_ != nullptr) {
        traffic.link_active = true;
        traffic.messages_in_flight = in_flight_;
      }
      round_hook_(traffic, nullptr);
    }
  }

 private:
  template <class Msg>
  using messages_of_round = std::vector<std::optional<Msg>>;

  /// One delayed directed copy, queued at its receiver.  The payload is
  /// type-erased so the queue survives protocol phases that switch message
  /// types.  A copy that comes due while a different view or message type
  /// is stepping is expired (counted dropped): it belongs to a phase or
  /// epoch that has ended, and can never be delivered.
  struct flight_entry {
    round_t due = 0;         // first send-round index eligible for delivery
    round_t sent = 0;        // send-round index (actual latency = now - sent)
    std::uint64_t view = 0;  // view_id() of the step that sent it
    std::shared_ptr<const void> payload;
    const std::type_info* type = nullptr;
  };

  /// The channel path of step(): transmit gating, medium discipline,
  /// erasures, and the in-flight delivery queue.  Copy accounting feeds the
  /// round's traffic record; cumulative conservation (sent == delivered +
  /// dropped + in flight) is audited after every round.
  template <class Msg, class Deliver>
  void step_channel(const graph& g, std::uint64_t view_id,
                    round_traffic& traffic, messages_of_round<Msg>& msgs,
                    Deliver&& deliver) {
    traffic.link_active = true;
    const round_t send_round = round_;
    std::vector<char> transmit(n_, 0);
    for (node_id u = 0; u < n_; ++u) {
      if (!msgs[u].has_value() || !link_->transmits(send_round, u)) continue;
      transmit[u] = 1;
      const std::size_t bits = msgs[u]->bit_size();
      ++traffic.messages;
      traffic.message_bits += bits;
      traffic.max_message_bits = std::max(traffic.max_message_bits, bits);
    }
    const medium_mode medium = link_->medium();
    const bool collide =
        medium == medium_mode::broadcast && link_->collisions();

    auto record_latency = [&](round_t latency) {
      const auto slot = static_cast<std::size_t>(latency);
      if (traffic.delivery_latency.size() <= slot) {
        traffic.delivery_latency.resize(slot + 1);
      }
      ++traffic.delivery_latency[slot];
    };

    // Delayed copies of one sender share a single heap copy of its message.
    std::vector<std::shared_ptr<const Msg>> shared(n_);
    std::vector<const Msg*> inbox;
    for (node_id u = 0; u < n_; ++u) {
      inbox.clear();
      // In-flight copies that came due, in enqueue order (FIFO per
      // receiver): they arrive "before" this round's transmissions.
      std::vector<flight_entry>& queue = flight_[u];
      std::size_t came_due = 0;
      for (const flight_entry& e : queue) {
        if (e.due > send_round) continue;
        ++came_due;
        if (e.view == view_id && *e.type == typeid(Msg)) {
          inbox.push_back(static_cast<const Msg*>(e.payload.get()));
          ++traffic.messages_delivered;
          record_latency(send_round - e.sent);
        } else {
          ++traffic.messages_dropped;  // expired: the phase moved on
        }
      }

      // This round's copies, under the medium discipline: a half-duplex /
      // broadcast receiver that transmitted hears nothing, and on a
      // colliding broadcast medium two or more transmitting neighbours
      // jam each other out.
      const bool rx_busy = medium != medium_mode::full && transmit[u] != 0;
      std::size_t tx_neighbors = 0;
      if (collide) {
        for (node_id v : g.neighbors(u)) {
          tx_neighbors += static_cast<std::size_t>(transmit[v]);
        }
      }
      for (node_id v : g.neighbors(u)) {
        if (transmit[v] == 0) continue;
        ++traffic.messages_sent;
        if (rx_busy || (collide && tx_neighbors >= 2) ||
            link_->lost(send_round, v, u)) {
          ++traffic.messages_dropped;
          continue;
        }
        const round_t d = link_->delay(send_round, v, u);
        if (d == 0) {
          inbox.push_back(&*msgs[v]);
          ++traffic.messages_delivered;
          record_latency(0);
        } else {
          if (shared[v] == nullptr) {
            shared[v] = std::make_shared<const Msg>(*msgs[v]);
          }
          // Drawn delays are >= 1, so this copy is not due this round.
          queue.push_back(
              {send_round + d, send_round, view_id, shared[v], &typeid(Msg)});
          ++in_flight_;
        }
      }
      deliver(u, static_cast<const std::vector<const Msg*>&>(inbox));
      // Last, since the inbox points into the due copies' payloads.
      if (came_due != 0) {
        std::erase_if(queue, [send_round](const flight_entry& e) {
          return e.due <= send_round;
        });
        in_flight_ -= came_due;
      }
    }
    traffic.messages_in_flight = in_flight_;
    link_sent_total_ += traffic.messages_sent;
    link_delivered_total_ += traffic.messages_delivered;
    link_dropped_total_ += traffic.messages_dropped;
    // Conservation: every copy that ever entered the channel has exactly
    // one fate — delivered, dropped, or still in flight.
    NCDN_AUDIT(link_sent_total_ ==
               link_delivered_total_ + link_dropped_total_ + in_flight_);
  }

  std::size_t n_;
  double bit_limit_;  // message_bit_limit(n, b, slack)
  adversary& adv_;
  round_t round_ = 0;
  std::size_t max_message_bits_ = 0;
  std::vector<rng> node_rngs_;
  round_hook round_hook_;
  word_arena* arena_ = nullptr;            // session pool; null = no pooling
  std::unique_ptr<link_model> link_;       // null = reliable default
  // Delayed copies, one queue per receiver in enqueue order (sized n by
  // set_link_model), and their total.
  std::vector<std::vector<flight_entry>> flight_;
  std::size_t in_flight_ = 0;
  std::uint64_t link_sent_total_ = 0;      // cumulative copy accounting
  std::uint64_t link_delivered_total_ = 0;
  std::uint64_t link_dropped_total_ = 0;
};

}  // namespace ncdn
