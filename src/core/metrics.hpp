// Per-round and whole-run measurement records for the steppable session.
//
// Each communication round (silent/waiting rounds included) yields one
// `round_metrics`: the network's `round_traffic` record (messages, bits,
// |E(t)|, channel copies) plus the round's knowledge_view readings
// (per-node knowledge, §7 retirements, decode work and decode events).
// The session folds the stream into a `session_metrics` aggregate, which
// subsumes the observer-measured completion round the protocols used to
// track by hand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dynnet/graph.hpp"

namespace ncdn {

/// What the round engine (network::step, network::silent_rounds) records
/// about one communication round: the traffic half of `round_metrics`.
struct round_traffic {
  round_t round = 0;      // 1-based round index within the session
  bool silent = false;    // protocol-internal waiting round (no messages)
  std::size_t messages = 0;          // nodes that broadcast this round
  std::size_t message_bits = 0;      // total bits put on the air this round
  std::size_t max_message_bits = 0;  // largest single message this round
  std::size_t topology_edges = 0;    // |E| of the round's committed graph
                                     // (0 for silent rounds) — makes the
                                     // dynamic families' evolution visible
                                     // to observers/--trace

  // Channel accounting (src/linkmodel), zero with link_active false under
  // the reliable default.  Counts are directed copies: one (sender ->
  // receiver) traversal each, so a broadcast reaching 3 neighbours is 3
  // copies, and each copy entering the channel is eventually delivered,
  // dropped (erased, collided or expired) or still in flight.
  // messages_in_flight is the delivery-queue size after the round;
  // delivery_latency buckets this round's deliveries by how many rounds
  // they spent in flight (index 0 = same-round; empty when nothing was
  // delivered).
  bool link_active = false;
  std::size_t messages_sent = 0;
  std::size_t messages_delivered = 0;
  std::size_t messages_dropped = 0;
  std::size_t messages_in_flight = 0;
  std::vector<std::size_t> delivery_latency;
};

/// Snapshot of one communication round, taken after delivery: the round
/// engine's traffic record plus the readings of the round's knowledge_view.
struct round_metrics : round_traffic {
  // Per-node knowledge after the round: tokens known for forwarding
  // protocols, received-span rank for coding protocols (the same quantity
  // the adaptive adversary inspects).  For silent rounds this carries the
  // last observed state (nothing can change while everyone is quiet).
  std::vector<std::size_t> knowledge;
  std::size_t min_knowledge = 0;
  std::size_t max_knowledge = 0;
  std::size_t total_knowledge = 0;

  // Tokens out of consideration (§7 retirement), summed over nodes; zero
  // for protocols that do not use the shared token_state bookkeeping.
  std::size_t tokens_retired = 0;

  // Decode cost this round: XOR word-operations spent in Gaussian
  // elimination and combination generation, summed over nodes (the
  // knowledge_view's coding_work delta).  This is the axis the sparse and
  // generation coding backends trade rounds against.  The counters are
  // cumulative per view, so this is the delta against the same view's
  // last reading, even when a protocol steps other views in between; work
  // a view does between its stepped rounds (seeding, say) lands on its
  // next one.
  std::uint64_t elimination_xors = 0;

  // Decode-delay accounting (coded sessions only; decode_delay_active
  // false for token-forwarding protocols).  newly_decodable counts the
  // (node, token) pairs that first became decodable this round — the
  // session diffs the view's cumulative delay histogram against the same
  // view's last reading, as it does coding_work.
  bool decode_delay_active = false;
  std::uint64_t newly_decodable = 0;

  bool all_complete(std::size_t k) const noexcept {
    return !knowledge.empty() && min_knowledge >= k;
  }
};

/// What the versioned-content epoch driver (src/content) reports for a
/// multi-epoch run.  Inactive (all zero / empty) unless the session was
/// built with a content spec.
struct content_metrics {
  bool active = false;
  bool resync_full = false;      // resync=full naive baseline
  std::size_t epochs = 0;        // scheduled epochs, base epoch included
  std::size_t versions = 0;      // total versions in the patch DAG
  std::size_t head_version = 0;  // newest version after the final epoch

  // Per-epoch records, indexed by epoch.  epoch_rounds is -1 when the
  // epoch hit its Las-Vegas cap before every live node held the target.
  std::vector<std::int64_t> epoch_rounds;
  std::vector<std::size_t> epoch_delta_items;   // versions re-seeded
  std::vector<std::size_t> epoch_target_items;  // closure size required

  // Bytes-on-wire accounting: what this run actually spent versus the
  // analytic floor of naive full re-dissemination (every epoch restarts a
  // broadcast of the whole target closure; floor = per-epoch
  // target * (target + d) message bits — the minimum rows a fresh full
  // broadcast must put on the air).
  std::uint64_t wire_bits = 0;
  std::uint64_t full_resync_floor_bits = 0;

  std::size_t backlog_items = 0;   // delta items beyond the epoch's fresh
                                   // patches (catch-up re-dissemination)
  std::size_t shortcut_hits = 0;   // dependencies discharged via a
                                   // superseding version instead of the
                                   // original parent
  // Staleness: per-node rounds spent behind the current head's closure,
  // totalled over the run; percentiles over nodes.
  std::size_t staleness_p50 = 0;
  std::size_t staleness_p90 = 0;
  std::size_t staleness_max = 0;
};

/// What the session's built-in observer accumulates over a whole run.
struct session_metrics {
  round_t rounds = 0;                    // rounds observed
  round_t rounds_with_traffic = 0;       // rounds with >= 1 message
  round_t observed_completion_round = 0; // first round the observer saw
                                         // min knowledge reach k (0 = never)
  std::size_t total_messages = 0;
  std::size_t total_message_bits = 0;
  std::size_t peak_round_bits = 0;       // busiest round, in bits
  std::size_t final_min_knowledge = 0;
  std::size_t final_total_knowledge = 0;
  std::size_t final_tokens_retired = 0;
  std::uint64_t total_elimination_xors = 0;  // summed round elimination_xors

  // Decode-delay distribution over (node, token) pairs: how many rounds
  // after its session-relative start each pair first became decodable
  // (bucket 0 = seeded / decodable before any communication).  Only coded
  // runs report it; percentiles are integer nearest-rank over pairs.
  bool decode_delay_active = false;
  std::uint64_t decode_delay_events = 0;        // pairs that became decodable
  std::vector<std::uint64_t> decode_delay_hist; // bucket = delay in rounds
  std::size_t decode_delay_p50 = 0;
  std::size_t decode_delay_p90 = 0;
  std::size_t decode_delay_max = 0;

  // Channel aggregates (zero / empty without a link model).  The
  // conservation invariant holds at every observed round: total sent ==
  // total delivered + total dropped + messages_in_flight.
  bool link_active = false;
  std::uint64_t total_messages_sent = 0;
  std::uint64_t total_messages_delivered = 0;
  std::uint64_t total_messages_dropped = 0;
  std::size_t messages_in_flight = 0;  // still queued when the run ended
  std::vector<std::size_t> delivery_latency;  // cumulative histogram

  // Versioned-content aggregates (content.active false for one-shot runs).
  content_metrics content;
};

}  // namespace ncdn
