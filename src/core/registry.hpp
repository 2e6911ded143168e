// String-keyed spec registries: the open extension points of the public
// API (the same pattern sparsenc uses for its coding-scheme table).
//
// A protocol or adversary registers under a stable name with a factory
// taking the `problem` and a `param_map` of key=value overrides
// ("t_stability=4", "radius=0.4", "epoch_cap=8", ...).  Every built-in
// protocol and adversary is an entry here, so external code can add entries
// without touching this file.
//
// Protocol factories return a round-driven `protocol_machine`
// (core/machine.hpp): write the algorithm as a `round_task` coroutine with
// `co_await ncdn::next_round;` at every round boundary, and wrap it with
// `make_protocol_machine`:
//
//   ncdn::round_task<ncdn::protocol_result> run_my_protocol(
//       ncdn::session_env& env, my_config cfg) {
//     ncdn::protocol_result res;
//     while (!env.state.all_complete()) {
//       env.net.step<my_msg>(
//           env.state,
//           // Fill node u's reused slot, overwriting every field it sends;
//           // false keeps u silent this round.
//           [&](ncdn::node_id u, ncdn::rng& r, my_msg& slot) {
//             return fill_my_msg(u, r, slot);
//           },
//           [&](ncdn::node_id u, const std::vector<const my_msg*>& inbox) {
//             for (const my_msg* m : inbox) absorb(u, *m);
//           });
//       co_await ncdn::next_round;  // park; session::step() resumes here
//     }
//     co_return res;
//   }
//
//   ncdn::protocol_registry::instance().add(
//       {"my-protocol", "one-line summary", std::nullopt,
//        [](const ncdn::problem& prob, ncdn::param_reader& params) {
//          my_config cfg;
//          cfg.b_bits = prob.b;
//          cfg.fanout = params.size("fanout", 2);
//          return ncdn::make_protocol_machine(
//              [cfg](ncdn::session_env& env) {
//                return run_my_protocol(env, cfg);
//              });
//        }});
//
// A coded broadcast registers a `coded_plan` and no `make`: build_protocol
// runs the plan as one standalone broadcast, and a versioned-content run
// (run_versioned_content) runs it once per epoch.
//
// User-input errors (unknown name, unknown or malformed parameter) throw
// std::invalid_argument; contract macros stay reserved for programmer
// error.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "core/dissemination.hpp"
#include "core/machine.hpp"
#include "dynnet/adversary.hpp"
#include "dynnet/network.hpp"
#include "protocols/common.hpp"

namespace ncdn {

/// key=value overrides attached to a spec (deterministically ordered).
using param_map = std::map<std::string, std::string>;

/// A protocol selection: registry name + overrides.
struct protocol_spec {
  std::string name;
  param_map params;
};

/// An adversary selection: registry name + overrides.
struct adversary_spec {
  std::string name;
  param_map params;
};

/// "a, b, c" — the shared error-message rendering of a key vocabulary
/// (expect_fully_consumed, the session's unknown-parameter error, and the
/// registries' unknown-name error).
std::string join_keys(const std::vector<std::string>& keys);

/// Splits the CLI spec string "name[,key=value]..." (name alone is fine)
/// into `name` and `params`; `option` ("--link") names the flag in error
/// messages.  Throws std::invalid_argument on malformed input.
void parse_spec_into(const std::string& text, const char* option,
                     std::string& name, param_map& params);

/// parse_spec_into for any {name, params} spec type.
template <class Spec>
Spec parse_spec(const std::string& text, const char* option) {
  Spec spec;
  parse_spec_into(text, option, spec.name, spec.params);
  return spec;
}

/// The inverse of parse_spec: "name,key=value,..." in key order.
std::string format_spec(const std::string& name, const param_map& params);

/// Returns `value` if it is a probability — in [0, 1], or in (0, 1] when
/// zero is not allowed — and otherwise throws std::invalid_argument
/// "ncdn: <context> needs <key> in [0, 1]".
double checked_probability(const std::string& context, const char* key,
                           double value, bool allow_zero = true);

/// A registration-ordered table of named extension-point entries: the
/// protocols, adversaries, link models and content models.  `Entry` is a
/// struct with `name` and `summary` strings.  instance() fills itself once
/// from the `register_builtins(named_registry<Entry>&)` overload declared
/// next to the subsystem's registry alias (found by argument-dependent
/// lookup), so built-ins come first, deterministically.
template <class Entry>
class named_registry {
 public:
  static named_registry& instance() {
    static named_registry reg = [] {
      named_registry r;
      register_builtins(r);
      return r;
    }();
    return reg;
  }

  void add(Entry entry) {  // duplicate names are programmer error
    NCDN_EXPECTS(!entry.name.empty());
    NCDN_EXPECTS(find(entry.name) == nullptr);
    entries_.push_back(std::move(entry));
  }

  const Entry* find(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }

  /// find() for user input: throws std::invalid_argument
  /// "ncdn: unknown <kind> '<name>' (known: a, b, ...)".
  const Entry& at(const std::string& name, const char* kind) const {
    if (const Entry* e = find(name)) return *e;
    throw std::invalid_argument(std::string("ncdn: unknown ") + kind + " '" +
                                name + "' (known: " + join_keys(names()) +
                                ")");
  }

  const std::vector<Entry>& entries() const { return entries_; }

  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.name);
    return out;
  }

 private:
  std::vector<Entry> entries_;
};

/// Typed, consumption-tracking access to a param_map.  Factories read the
/// keys they understand; whoever owns the reader then calls
/// `expect_fully_consumed()` so a typo'd key fails loudly instead of being
/// silently ignored — and, because the reader also remembers every key the
/// factory *asked* for (present in the map or not), the error can say what
/// would have been valid.
class param_reader {
 public:
  param_reader(const param_map& params, std::string context)
      : params_(&params), context_(std::move(context)) {}

  /// What the map configures ("protocol 'rlnc-gen'"), for error messages.
  /// A reader shared by several factories switches it before each one.
  const std::string& context() const noexcept { return context_; }
  void set_context(std::string context) { context_ = std::move(context); }

  std::size_t size(const std::string& key, std::size_t fallback);
  std::uint64_t u64(const std::string& key, std::uint64_t fallback);
  double real(const std::string& key, double fallback);
  bool flag(const std::string& key, bool fallback);
  std::string str(const std::string& key, std::string fallback);

  /// Keys present in the map that nothing has read yet.
  std::vector<std::string> unconsumed() const;
  /// Every key the factory queried (sorted, unique) — the spec's actual
  /// vocabulary, fallbacks included.
  std::vector<std::string> recognized() const;
  /// Throws std::invalid_argument naming every unconsumed key and listing
  /// the recognized vocabulary.
  void expect_fully_consumed() const;

 private:
  const std::string* raw(const std::string& key);

  const param_map* params_;
  std::string context_;
  std::vector<std::string> consumed_;
  std::vector<std::string> queried_;
};

// session_env, protocol_machine and make_protocol_machine live in
// core/machine.hpp.

class coding_backend;  // coding/backend.hpp

/// How a coded-broadcast entry instantiates its coding: a backend factory
/// plus the Las-Vegas round cap for a (nodes, items) instance.  A standalone
/// run of an rlnc-* entry is one broadcast from its plan, and a
/// versioned-content run (src/content) re-invokes the same plan once per
/// epoch so every delta set is coded exactly like a standalone broadcast of
/// that size.
struct coded_backend_plan {
  std::function<std::unique_ptr<coding_backend>()> make_backend;
  std::function<round_t(std::size_t n, std::size_t items)> cap;
};

struct protocol_entry {
  std::string name;     // e.g. "greedy-forward", "tstable/patch"
  std::string summary;  // one line for `ncdn-run list-algorithms`
  std::optional<algorithm> legacy;  // enum tag, if any
  // Empty for a coded broadcast, which registers only `coded_plan` below.
  std::function<std::unique_ptr<protocol_machine>(const problem&,
                                                  param_reader&)>
      make;
  // Whether the protocol's correctness rests on every round's topology
  // being connected over all nodes (min-flood agreement, patch covers).
  // The coded-broadcast family tolerates partial connectivity — any
  // received combination helps, no consensus step — so those entries
  // clear this and may be paired with live-subset adversaries (churn).
  bool needs_full_connectivity = true;
  // Whether the protocol stays correct when the channel may erase or
  // delay individual copies (src/linkmodel).  Protocols whose rounds
  // assert symmetric receipt (min-flood agreement) must keep this false;
  // the session rejects pairing them with a non-empty link spec.
  bool loss_tolerant = false;
  // Non-null only for the coded-broadcast family (rlnc-direct/sparse/gen):
  // the backend+cap plan.  An entry with a plan and no `make` runs
  // standalone as one coded broadcast from the plan, and a
  // versioned-content run re-instantiates the plan per delta set, so both
  // runs read the same vocabulary.
  std::function<coded_backend_plan(const problem&, param_reader&)> coded_plan =
      {};
};

struct adversary_entry {
  std::string name;
  std::string summary;
  std::optional<topology_kind> legacy;  // enum tag, if any
  // The raw adversary; build_adversary layers T-stability on top when
  // prob.t_stability > 1.
  std::function<std::unique_ptr<adversary>(const problem&, param_reader&,
                                           std::uint64_t seed)>
      make;
};

using protocol_registry = named_registry<protocol_entry>;
using adversary_registry = named_registry<adversary_entry>;
/// The built-in protocols / adversaries (core/registry.cpp).
void register_builtins(protocol_registry& reg);
void register_builtins(adversary_registry& reg);

/// Applies problem-level overrides (`n`, `k`, `d`, `b`, `t_stability`,
/// `slack`, `placement`) from the reader's param_map.  Spec params are the
/// single override channel, so `--param t_stability=4` reshapes both the
/// adversary wrapper and every protocol config derived from the problem.
problem apply_problem_params(problem prob, param_reader& params);

/// Builds a parameterized machine / plan / adversary, in one of two forms.
///
///  - Spec form (build_protocol, build_adversary): the spec's own map is the
///    whole namespace.  Its problem-level keys reshape `prob`, the entry
///    reads its keys, and any key left unread throws std::invalid_argument
///    naming the valid keys.
///  - Reader form (all three): the entry reads its keys from `params`, a
///    reader the caller shares across several factories (the session's one
///    namespace).  Each call switches the reader's context to
///    "protocol '<name>'" or "adversary '<name>'" for error messages;
///    `prob` must already carry the problem-level keys, and the caller
///    rejects keys no factory read once all of them have run.
///
/// Unknown names throw std::invalid_argument.  A protocol entry with a
/// coded plan and no `make` is built as its standalone broadcast, after
/// checking that its (k + d)-bit rows fit the message budget.
/// build_coded_plan throws when the protocol has no plan (only the rlnc-*
/// family codes arbitrary delta sets).  build_adversary applies the
/// T-stability wrapper when prob.t_stability > 1.
std::unique_ptr<protocol_machine> build_protocol(const problem& prob,
                                                 const protocol_spec& spec);
std::unique_ptr<protocol_machine> build_protocol(const problem& prob,
                                                 const std::string& name,
                                                 param_reader& params);
coded_backend_plan build_coded_plan(const problem& prob,
                                    const std::string& name,
                                    param_reader& params);
std::unique_ptr<adversary> build_adversary(const problem& prob,
                                           const adversary_spec& spec,
                                           std::uint64_t seed);
std::unique_ptr<adversary> build_adversary(const problem& prob,
                                           const std::string& name,
                                           param_reader& params,
                                           std::uint64_t seed);

}  // namespace ncdn
