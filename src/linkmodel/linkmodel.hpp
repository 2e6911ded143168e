// The link-model subsystem: named, parameterized per-edge channels that sit
// between the adversary's topology and the protocol machines.
//
// A `link_spec` mirrors protocol_spec / adversary_spec: a registry name
// ("perfect", "bernoulli", "gilbert-elliott") plus key=value params.  The
// name picks the *loss process*; the channel-layer params shared by every
// entry configure latency and the medium:
//
//   delay=d        every copy arrives exactly d rounds late
//   delay_max=d    per-copy uniform delay in [0, d] (exclusive with delay)
//   medium=MODE    full (default) | half-duplex | broadcast
//   collisions=B   broadcast only: >= 2 transmitting neighbours collide
//                  at the receiver (default true)
//   tx_prob=q      ALOHA-style transmit gate, q in (0, 1] (default 1)
//
// Loss-process params: bernoulli takes p (erasure probability per directed
// copy); gilbert-elliott takes p_good_bad, p_bad_good (per-round state-flip
// probabilities of the per-edge two-state chain) and loss_good, loss_bad
// (erasure probability in each state).  All draws are pure hashes of
// (link seed, edge, round, direction) — see dynnet/channel.hpp for the
// determinism contract — so perturbing one edge's channel cannot shift any
// other edge's stream.
//
// Cost: a gilbert-elliott query walks back from its round to the last draw
// that sent both chain states to one state, about
// 1 / |p_good_bad - p_bad_good| draws (5 at the defaults), in any round
// order.  Only a walk longer than 32 draws leaves a per-edge memo entry,
// kept in a flat array found through a pair_index (core/pair_index.hpp),
// which later queries of that edge stop at; that keeps equal flip
// probabilities, whose draws never merge the states, at O(1) per query on
// a persistent edge.  A fresh edge at equal probabilities still walks back
// to round 0.
//
// `ncdn-run run --link "bernoulli,p=0.1,delay=2"` parses the same spec from
// the CLI via parse_link_spec.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "dynnet/channel.hpp"

namespace ncdn {

/// A link-model selection: registry name + overrides.  An empty name means
/// no channel at all — the engine's historical reliable path.
struct link_spec {
  std::string name;
  param_map params;

  bool empty() const noexcept { return name.empty(); }
};

/// One registered loss process; the builder wraps it with the shared
/// latency/medium layer.
struct link_entry {
  std::string name;     // e.g. "bernoulli"
  std::string summary;  // one line for `ncdn-run list-links`
  // Factory of the per-copy erasure predicate (a link_model restricted to
  // lost(); the channel wrapper supplies delay/medium/transmits).
  std::function<std::function<bool(round_t, node_id, node_id)>(
      param_reader&, std::uint64_t seed)>
      make_loss;
};

using link_registry = named_registry<link_entry>;
/// The built-in loss processes (linkmodel.cpp).
void register_builtins(link_registry& reg);

/// Builds the full channel (loss process + latency + medium) from a spec.
/// Throws std::invalid_argument on an unknown name or unknown / malformed
/// params.  `spec.empty()` is programmer error — callers skip the channel
/// entirely for the reliable default.
std::unique_ptr<link_model> build_link_model(const link_spec& spec,
                                             std::uint64_t seed);

/// Parses the CLI spec string "name,key=value,key=value" (name alone is
/// fine).  Throws std::invalid_argument on malformed input.
link_spec parse_link_spec(const std::string& text);

}  // namespace ncdn
