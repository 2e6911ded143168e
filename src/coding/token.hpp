// Tokens: the units of the k-token dissemination problem (paper §4.2).
//
// A token is d bits of payload.  Tokens are *not* pre-indexed (§3 stresses
// that assuming a global index would beg the question for applications like
// counting); instead each origin node self-generates an O(log n)-bit ID by
// concatenating its UID with a sequence number (Corollary 7.1), and
// protocols that need a dense 1..k indexing must construct one (flooding,
// gathering, or priorities).  Announcing an ID costs id_bits() on the wire
// and is charged by the protocols that do it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bits.hpp"
#include "core/rng.hpp"
#include "dynnet/graph.hpp"
#include "linalg/bitvec.hpp"

namespace ncdn {

/// Self-generated token identifier: (origin UID, per-origin sequence no).
/// Ordered lexicographically; O(log n + log k) bits on the wire.
struct token_id {
  std::uint32_t origin = 0;
  std::uint32_t seq = 0;

  friend auto operator<=>(const token_id&, const token_id&) = default;

  std::uint64_t packed() const noexcept {
    return (static_cast<std::uint64_t>(origin) << 32) | seq;
  }
};

/// Wire size of one token ID announcement among n nodes and k tokens.
constexpr std::size_t token_id_bits(std::size_t n, std::size_t k) noexcept {
  return bits_for(n) + bits_for(k + 1);
}

struct token {
  token_id id;
  bitvec payload;  // exactly d bits
};

/// The initial placement of tokens chosen by the adversary before round 1
/// (§4.2: "the k tokens are chosen and distributed to the nodes by the
/// adversary").
struct token_distribution {
  std::size_t n = 0;             // nodes
  std::size_t d_bits = 0;        // token size
  std::vector<token> tokens;     // all k tokens, sorted by id
  std::vector<std::vector<std::size_t>> held_by_node;  // node -> token indices

  std::size_t k() const noexcept { return tokens.size(); }
  /// Wire size of one token ID announcement.
  std::size_t id_bits() const noexcept { return token_id_bits(n, k()); }
};

/// Placement policies for the adversarial initial distribution.
enum class placement {
  one_per_node,     // k = n, node i starts with exactly token i (the
                    // n-token dissemination / counting setting)
  single_source,    // all k tokens at node 0 (pure indexed-broadcast)
  random_spread,    // each token at one uniformly random node
  adversarial_far,  // all tokens on one end of the id range (worst for
                    // path-like topologies whose other end must wait)
};

/// Builds a distribution with random payloads.  For one_per_node, k must
/// equal n.
token_distribution make_distribution(std::size_t n, std::size_t k,
                                     std::size_t d_bits, placement place,
                                     rng& r);

}  // namespace ncdn
