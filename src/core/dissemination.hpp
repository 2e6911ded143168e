// The problem instance and run record shared by every entry point, plus
// the `algorithm` / `topology_kind` enums that tag the built-in registry
// entries (core/registry.hpp).  A run is a `session` (core/session.hpp):
//
//   ncdn::problem prob{.n = 64, .k = 64, .d = 16, .b = 64};
//   ncdn::session s(prob, {"greedy-forward", {}}, {"permuted-path", {}},
//                   /*seed=*/1);
//   const ncdn::run_report& report = s.run_to_completion();
//
// New protocols and adversaries register by name and need no enum.
#pragma once

#include <string>

#include "core/metrics.hpp"
#include "protocols/common.hpp"

namespace ncdn {

/// Tag of a built-in protocol entry (protocol_entry::legacy); prefer the
/// registry name (see `protocol_registry::names()`).  Every enumerator is
/// registered under the name `to_string` returns.
enum class algorithm {
  token_forwarding,            // Thm 2.1 baseline (batched min-flood)
  token_forwarding_pipelined,  // streaming variant for T-stable baselines
  naive_indexed,               // Cor 7.1
  greedy_forward,              // Thm 7.3
  priority_forward_flooding,   // Thm 7.5 (explicit flooding indexing)
  priority_forward_charged,    // Thm 7.5 (charged recursive indexing)
  tstable_auto,                // Thm 2.4 (best feasible engine)
  tstable_patch,               // §8 patch-sharing engine
  tstable_chunked,             // §8 first idea only (factor T)
  tstable_patch_gather,        // §8.3 mode B: in-patch pipelined gathering
  centralized_rlnc,            // Cor 2.6
  rlnc_direct,                 // Lemma 5.3 indexed broadcast run standalone
                               // (global indexing granted; b >= (k+d)/2)
};

/// Tag of a built-in adversary entry (adversary_entry::legacy); prefer the
/// registry name (see `adversary_registry::names()`).
enum class topology_kind {
  static_path,
  static_star,
  permuted_path,      // fresh random path every round (hard oblivious)
  random_connected,   // fresh sparse random connected graph every round
  random_geometric,   // fresh geometric graph every round (ad-hoc mesh)
  sorted_path,        // adaptive: path sorted by current knowledge
};

/// Registry-backed names; a registered entry is the single source of truth,
/// so an entry can no longer ship without its string.
const char* to_string(algorithm a);
const char* to_string(topology_kind t);

struct problem {
  std::size_t n = 0;  // nodes
  std::size_t k = 0;  // tokens
  std::size_t d = 0;  // token bits
  std::size_t b = 0;  // message bits (b >= log2 n)
  round_t t_stability = 1;
  placement place = placement::one_per_node;
  double slack = 2.0;  // constant hidden in the O(b) message budget (§7)
};

/// The session's run record: the protocol_result the protocol reported,
/// the instance it ran on, the registry names that selected it, and the
/// session-observed per-round aggregates.
struct run_report : protocol_result {
  problem prob;
  std::string algorithm_name;
  std::string adversary_name;
  std::uint64_t seed = 0;
  session_metrics metrics;
};

}  // namespace ncdn
