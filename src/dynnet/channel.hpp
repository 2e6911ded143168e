// The per-edge channel interface: what the round engine asks a link model
// while it moves one round's messages from senders to receivers.
//
// Every adversary commits a *topology*; the link model decides what the
// edges of that topology actually do to the copies crossing them — erase
// them (Bernoulli / Gilbert-Elliott losses), hold them in flight for a few
// rounds (per-edge latency), or impose a shared-medium discipline
// (half-duplex receivers, broadcast collisions, ALOHA-style transmit
// gating).  Implementations live in src/linkmodel; the engine only needs
// this surface, and a null link model means the historical perfectly
// reliable zero-latency path, bit for bit.
//
// Determinism contract: every answer must be a pure function of
// (link seed, edge, round) — typically hashed draws.  A model may memoize
// per-edge results (the Gilbert-Elliott chain keeps a memo for long
// walks), but only to save work: no answer may depend on which edges or
// rounds were queried before, or in what order.  Node rngs are
// off-limits: the channel must not shift protocol draws.
#pragma once

#include "dynnet/graph.hpp"

namespace ncdn {

/// How the shared medium treats simultaneous transmissions.
enum class medium_mode {
  full,         // every edge is an independent full-duplex channel
  half_duplex,  // a node that transmits in round r hears nothing in round r
  broadcast,    // half-duplex, plus optional collisions: a receiver with
                // two or more transmitting neighbours loses all of them
};

class link_model {
 public:
  virtual ~link_model() = default;

  /// True when the directed copy from -> to put on the air in `round` is
  /// erased by the channel.  May update a per-edge memo (hence
  /// non-const), but the answer is a pure function of (seed, edge, round,
  /// direction), whatever the order of queries.
  virtual bool lost(round_t round, node_id from, node_id to) = 0;

  /// Rounds the copy spends in flight: 0 delivers within the sending
  /// round (the historical synchronous semantics), d > 0 arrives d rounds
  /// later through the engine's delivery queue.  At most 2^64 - 1 - round,
  /// so the due round does not wrap.
  virtual round_t delay(round_t round, node_id from, node_id to) = 0;

  /// ALOHA-style transmit gate: false suppresses node u's broadcast this
  /// round (the message is never put on the air).  Always true at the
  /// default tx_prob = 1; the knob that keeps half-duplex / collision
  /// media from deadlocking under everyone-transmits protocols.
  virtual bool transmits(round_t round, node_id u) = 0;

  virtual medium_mode medium() const = 0;
  /// Whether broadcast-medium receivers lose colliding transmissions
  /// (meaningful only under medium_mode::broadcast).
  virtual bool collisions() const = 0;
};

}  // namespace ncdn
