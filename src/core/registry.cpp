#include "core/registry.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "coding/backend.hpp"
#include "coding/matrix.hpp"
#include "dynnet/network.hpp"
#include "protocols/centralized.hpp"
#include "protocols/flooding.hpp"
#include "protocols/greedy_forward.hpp"
#include "protocols/naive_indexed.hpp"
#include "protocols/priority_forward.hpp"
#include "protocols/rlnc_broadcast.hpp"
#include "protocols/tstable_dissemination.hpp"

namespace ncdn {

// --- param_reader -----------------------------------------------------------

const std::string* param_reader::raw(const std::string& key) {
  bool asked = false;
  for (const std::string& q : queried_) asked = asked || q == key;
  if (!asked) queried_.push_back(key);
  const auto it = params_->find(key);
  if (it == params_->end()) return nullptr;
  bool seen = false;
  for (const std::string& c : consumed_) seen = seen || c == key;
  if (!seen) consumed_.push_back(key);
  return &it->second;
}

namespace {

[[noreturn]] void bad_param(const std::string& context, const std::string& key,
                            const std::string& value, const char* want) {
  throw std::invalid_argument("ncdn: parameter '" + key + "=" + value +
                              "' for " + context + " is not a valid " + want);
}

}  // namespace

std::uint64_t param_reader::u64(const std::string& key,
                                std::uint64_t fallback) {
  const std::string* v = raw(key);
  if (v == nullptr) return fallback;
  if (v->empty()) bad_param(context_, key, *v, "integer");
  for (char ch : *v) {
    if (ch < '0' || ch > '9') bad_param(context_, key, *v, "integer");
  }
  errno = 0;
  const unsigned long long parsed = std::strtoull(v->c_str(), nullptr, 10);
  if (errno == ERANGE) bad_param(context_, key, *v, "integer");
  return parsed;
}

std::size_t param_reader::size(const std::string& key, std::size_t fallback) {
  return static_cast<std::size_t>(u64(key, fallback));
}

double param_reader::real(const std::string& key, double fallback) {
  const std::string* v = raw(key);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v->c_str(), &end);
  if (v->empty() || end != v->c_str() + v->size() || errno == ERANGE ||
      !std::isfinite(parsed)) {
    bad_param(context_, key, *v, "number");
  }
  return parsed;
}

bool param_reader::flag(const std::string& key, bool fallback) {
  const std::string* v = raw(key);
  if (v == nullptr) return fallback;
  if (*v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  bad_param(context_, key, *v, "boolean");
}

std::string param_reader::str(const std::string& key, std::string fallback) {
  const std::string* v = raw(key);
  return v == nullptr ? fallback : *v;
}

std::vector<std::string> param_reader::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : *params_) {
    bool seen = false;
    for (const std::string& c : consumed_) seen = seen || c == key;
    if (!seen) out.push_back(key);
  }
  return out;
}

std::vector<std::string> param_reader::recognized() const {
  std::vector<std::string> out = queried_;
  std::sort(out.begin(), out.end());
  return out;
}

std::string join_keys(const std::vector<std::string>& keys) {
  std::string out;
  for (const std::string& key : keys) {
    if (!out.empty()) out += ", ";
    out += key;
  }
  return out;
}

void parse_spec_into(const std::string& text, const char* option,
                     std::string& name, param_map& params) {
  std::size_t comma = text.find(',');
  name = text.substr(0, comma);
  if (name.empty() || name.find('=') != std::string::npos) {
    throw std::invalid_argument(std::string("ncdn: ") + option +
                                " needs \"name[,key=value]...\", got '" +
                                text + "'");
  }
  while (comma != std::string::npos) {
    const std::size_t start = comma + 1;
    comma = text.find(',', start);
    // substr clamps the npos-derived count of the last part.
    const std::string part = text.substr(start, comma - start);
    const std::size_t eq = part.find('=');
    if (eq == 0 || eq == std::string::npos) {
      throw std::invalid_argument(std::string("ncdn: bad ") + option +
                                  " parameter '" + part +
                                  "' (need key=value)");
    }
    params[part.substr(0, eq)] = part.substr(eq + 1);
  }
}

std::string format_spec(const std::string& name, const param_map& params) {
  std::string out = name;
  for (const auto& [key, value] : params) out += "," + key + "=" + value;
  return out;
}

double checked_probability(const std::string& context, const char* key,
                           double value, bool allow_zero) {
  const bool ok = (allow_zero ? value >= 0.0 : value > 0.0) && value <= 1.0;
  if (!ok) {
    throw std::invalid_argument("ncdn: " + context + " needs " + key +
                                (allow_zero ? " in [0, 1]" : " in (0, 1]"));
  }
  return value;
}

void param_reader::expect_fully_consumed() const {
  const std::vector<std::string> left = unconsumed();
  if (left.empty()) return;
  std::string msg = "ncdn: unknown parameter(s) for " + context_ + ":";
  for (const std::string& key : left) msg += " '" + key + "'";
  const std::vector<std::string> known = recognized();
  if (!known.empty()) msg += " (valid keys: " + join_keys(known) + ")";
  throw std::invalid_argument(msg);
}

// --- problem-level overrides ------------------------------------------------

problem apply_problem_params(problem prob, param_reader& params) {
  prob.n = params.size("n", prob.n);
  prob.k = params.size("k", prob.k);
  prob.d = params.size("d", prob.d);
  prob.b = params.size("b", prob.b);
  prob.t_stability = params.u64("t_stability", prob.t_stability);
  prob.slack = params.real("slack", prob.slack);
  const std::string place = params.str("placement", "");
  if (!place.empty()) {
    if (place == "one-per-node") {
      prob.place = placement::one_per_node;
    } else if (place == "single-source") {
      prob.place = placement::single_source;
    } else if (place == "random-spread") {
      prob.place = placement::random_spread;
    } else if (place == "adversarial-far") {
      prob.place = placement::adversarial_far;
    } else {
      throw std::invalid_argument("ncdn: unknown placement '" + place + "'");
    }
  }
  return prob;
}

// --- built-in protocols -----------------------------------------------------

namespace {

// A protocol's round-budget multiplier (a Las-Vegas cap, or a phase length
// per unit of n or n + k): at least `min`.  A negative factor would ask for
// a negative number of rounds, and a min-flood whose agreement the protocol
// asserts needs min = 1, since a flood shorter than n rounds need not
// reach every node.
double cap_factor_param(param_reader& params, const char* key, double fallback,
                        int min = 0) {
  const double factor = params.real(key, fallback);
  if (factor < min) {
    throw std::invalid_argument("ncdn: " + params.context() + " needs " + key +
                                " >= " + std::to_string(min));
  }
  return factor;
}

std::unique_ptr<protocol_machine> flooding_factory(const problem& prob,
                                                   param_reader& params,
                                                   bool pipelined) {
  flooding_config cfg;
  cfg.b_bits = prob.b;
  cfg.pipelined = pipelined;
  // Batched phases finalize by min-flood agreement: at least n rounds.
  const int min_factor = pipelined ? 0 : 1;
  cfg.phase_factor =
      cap_factor_param(params, "phase_factor", cfg.phase_factor, min_factor);
  return make_protocol_machine([cfg](session_env& env) {
    return flooding_machine(env.net, env.state, cfg);
  });
}

std::unique_ptr<protocol_machine> priority_factory(const problem& prob,
                                                   param_reader& params,
                                                   indexing_mode mode) {
  priority_forward_config cfg;
  cfg.b_bits = prob.b;
  cfg.indexing = mode;
  cfg.broadcast_factor =
      cap_factor_param(params, "broadcast_factor", cfg.broadcast_factor);
  cfg.charged_factor =
      cap_factor_param(params, "charged_factor", cfg.charged_factor);
  cfg.max_iterations = params.size("max_iterations", cfg.max_iterations);
  return make_protocol_machine([cfg](session_env& env) {
    return priority_forward_machine(env.net, env.state, cfg);
  });
}

// Shared driver for the standalone indexed-broadcast family (rlnc-direct /
// rlnc-sparse / rlnc-gen): global indexing granted, every node seeds its
// initial tokens, everyone broadcasts backend-drawn combinations until all
// nodes decode (or the Las-Vegas cap trips).
round_task<protocol_result> coded_broadcast_run(session_env& env,
                                                coded_backend_plan plan) {
  const token_distribution& dist = env.dist;
  NCDN_EXPECTS(static_cast<double>(dist.k() + env.prob.d) <=
               message_bit_limit(env.prob.n, env.prob.b, env.prob.slack));
  rlnc_session coding(env.prob.n, dist.k(), env.prob.d, plan.make_backend());
  coding.set_arena(env.arena);
  for (node_id u = 0; u < env.prob.n; ++u) {
    for (std::size_t t : dist.held_by_node[u]) {
      coding.seed(u, t, dist.tokens[t].payload);
    }
  }
  const round_t rounds_cap = plan.cap(env.prob.n, dist.k());
  const round_t used =
      co_await coding.run_stepped(env.net, rounds_cap, /*stop_early=*/true);
  protocol_result res;
  res.rounds = used;
  res.complete = coding.all_complete();
  res.completion_round = res.complete ? used : 0;
  res.max_message_bits = env.net.max_observed_message_bits();
  co_return res;
}

// The plan reader's tail, shared by the rlnc-* entries once each entry's
// head has filled its part of `spec` (rlnc-sparse's rho, rlnc-gen's window)
// and its sched/dec defaults.  sched= and dec= pick the matrix cell of
// coding/matrix.hpp, validated here; cap_factor= scales the entry's
// Las-Vegas cap `cap(cap_factor, n, items)`; buf=B keeps each node's B most
// recent wire rows as its recoding window (0, the default, leaves sched= in
// charge), and evict=oldest|newest picks the row a full buffer drops.
coded_backend_plan read_coded_plan(
    param_reader& params, const char* name, matrix_spec spec,
    std::function<round_t(double, std::size_t, std::size_t)> cap) {
  spec.sched = params.str("sched", spec.sched);
  spec.dec = params.str("dec", spec.dec);
  if (spec.sched == "sparse") spec.rho = params.real("rho", 0.2);
  make_matrix_backend(spec);  // validate the combo at parse time
  const double cap_factor = cap_factor_param(params, "cap_factor", 16.0);
  spec.buf = params.size("buf", 0);
  const std::string evict = params.str("evict", "oldest");
  if (evict != "oldest" && evict != "newest") {
    throw std::invalid_argument(std::string("ncdn: ") + name +
                                " needs evict=oldest|newest, got '" + evict +
                                "'");
  }
  spec.evict_oldest = evict == "oldest";
  coded_backend_plan plan;
  plan.make_backend = [spec] { return make_matrix_backend(spec); };
  plan.cap = [cap_factor, cap = std::move(cap)](std::size_t n,
                                                std::size_t k) {
    return cap(cap_factor, n, k);
  };
  return plan;
}

coded_backend_plan rlnc_direct_plan(const problem&, param_reader& params) {
  // Whp bound is O(n + k); the cap only guards the 2^-n tail.
  return read_coded_plan(
      params, "rlnc-direct", matrix_spec{},
      [](double cap_factor, std::size_t n, std::size_t k) {
        return round_cap(cap_factor * static_cast<double>(n + k), 64);
      });
}

coded_backend_plan rlnc_sparse_plan(const problem&, param_reader& params) {
  matrix_spec spec;
  spec.sched = "sparse";
  spec.rho = checked_probability("rlnc-sparse", "rho",
                                 params.real("rho", 0.2), false);
  // Per-round mixing slows by roughly rho / (1/2); widen the Las-Vegas cap
  // accordingly so small densities still finish.
  const double stretch = std::max(1.0, 0.5 / spec.rho);
  return read_coded_plan(
      params, "rlnc-sparse", spec,
      [stretch](double cap_factor, std::size_t n, std::size_t k) {
        return round_cap(cap_factor * stretch * static_cast<double>(n + k),
                         64);
      });
}

coded_backend_plan rlnc_gen_plan(const problem&, param_reader& params) {
  const std::size_t gen_size = params.size("gen_size", 16);
  if (gen_size < 1) {
    throw std::invalid_argument("ncdn: rlnc-gen needs gen_size >= 1");
  }
  const std::size_t overlap =
      params.size("band_overlap", std::min<std::size_t>(4, gen_size));
  if (overlap > gen_size) {
    throw std::invalid_argument("ncdn: rlnc-gen needs band_overlap <= "
                                "gen_size");
  }
  matrix_spec spec;
  spec.dec = "banded";
  spec.gen_size = gen_size;
  spec.band_overlap = overlap;
  return read_coded_plan(
      params, "rlnc-gen", spec,
      [gen_size, overlap](double cap_factor, std::size_t n, std::size_t k) {
        // Bandwidth splits across G generations; each needs its own
        // O(n + g + w) broadcast worth of rounds.  Sizes clamp to k (as the
        // decoder's windows do) so sizes near 2^64 cannot wrap.
        const std::size_t g = std::min(gen_size, std::max<std::size_t>(k, 1));
        const std::size_t w = std::min(overlap, k);
        const std::size_t gens = (k + g - 1) / g;
        return round_cap(
            cap_factor * static_cast<double>(gens * (n + g + w) + k), 64);
      });
}

std::unique_ptr<protocol_machine> tstable_factory(const problem& prob,
                                                  param_reader& params,
                                                  tstable_engine engine) {
  // A forced engine must fit the instance (auto_select falls back instead
  // of failing); the machine's engine choice uses the same predicate.
  if (!tstable_engine_fits(engine, prob.n, prob.b, prob.t_stability, prob.d)) {
    throw std::invalid_argument(
        "ncdn: this T-stable engine does not fit n=" + std::to_string(prob.n) +
        ", b=" + std::to_string(prob.b) + ", T=" +
        std::to_string(prob.t_stability) + ", d=" + std::to_string(prob.d) +
        " (its coded item must hold a d-bit token, one coded vector of "
        "b * t_vec bits must stay within " +
        std::to_string(tstable_max_vector_bits) +
        " bits, and the patch engines need a window that fits patching "
        "plus one share-pass-share cycle); use tstable/auto, or change "
        "t_stability or b");
  }
  tstable_config cfg;
  cfg.b_bits = prob.b;
  cfg.t_stability = prob.t_stability;
  cfg.engine = engine;
  cfg.gather_factor =
      cap_factor_param(params, "gather_factor", cfg.gather_factor);
  cfg.flood_factor =
      cap_factor_param(params, "flood_factor", cfg.flood_factor, 1);
  cfg.broadcast_cap_factor = cap_factor_param(
      params, "broadcast_cap_factor", cfg.broadcast_cap_factor);
  cfg.max_epochs = params.size("epoch_cap", cfg.max_epochs);
  return make_protocol_machine([cfg](session_env& env) {
    return tstable_machine(env.net, env.state, cfg);
  });
}

}  // namespace

void register_builtins(protocol_registry& reg) {
  reg.add({"token-forwarding",
           "Thm 2.1 token-forwarding baseline (batched min-flood)",
           algorithm::token_forwarding,
           [](const problem& prob, param_reader& params) {
             return flooding_factory(prob, params, /*pipelined=*/false);
           }});
  reg.add({"token-forwarding-pipelined",
           "streaming token-forwarding for T-stable baselines",
           algorithm::token_forwarding_pipelined,
           [](const problem& prob, param_reader& params) {
             return flooding_factory(prob, params, /*pipelined=*/true);
           },
           // The streaming variant makes no agreement assertion (nodes just
           // forward the lowest unseen token), so missing or late copies
           // only cost rounds — safe under lossy links, unlike the batched
           // min-flood baseline.
           /*needs_full_connectivity=*/true,
           /*loss_tolerant=*/true});
  reg.add({"naive-indexed",
           "Cor 7.1: index by ID-flooding, then RLNC-broadcast",
           algorithm::naive_indexed,
           [](const problem& prob, param_reader& params) {
             // A message carries m >= 1 token IDs in the flood and as many
             // coefficients in the coded phase.
             const std::size_t id_bits = token_id_bits(prob.n, prob.k);
             if (prob.b < 2 * id_bits) {
               throw std::invalid_argument(
                   "ncdn: naive-indexed needs b >= 2 * id_bits = " +
                   std::to_string(2 * id_bits) + " at n=" +
                   std::to_string(prob.n) + ", k=" + std::to_string(prob.k) +
                   " (got b=" + std::to_string(prob.b) + ")");
             }
             naive_indexed_config cfg;
             cfg.b_bits = prob.b;
             cfg.broadcast_factor = cap_factor_param(
                 params, "broadcast_factor", cfg.broadcast_factor);
             cfg.max_iterations =
                 params.size("max_iterations", cfg.max_iterations);
             return make_protocol_machine([cfg](session_env& env) {
               return naive_indexed_machine(env.net, env.state, cfg);
             });
           }});
  reg.add({"greedy-forward",
           "Thm 7.3: gather, coded-broadcast b^2/(4d) tokens, retire",
           algorithm::greedy_forward,
           [](const problem& prob, param_reader& params) {
             greedy_forward_config cfg;
             cfg.b_bits = prob.b;
             cfg.gather_factor =
                 cap_factor_param(params, "gather_factor", cfg.gather_factor);
             cfg.flood_factor =
                 cap_factor_param(params, "flood_factor", cfg.flood_factor, 1);
             cfg.broadcast_factor = cap_factor_param(
                 params, "broadcast_factor", cfg.broadcast_factor);
             cfg.max_epochs = params.size("epoch_cap", cfg.max_epochs);
             cfg.stop_when_gather_below =
                 params.size("stop_below", cfg.stop_when_gather_below);
             return make_protocol_machine([cfg](session_env& env) {
               return greedy_forward_machine(env.net, env.state, cfg);
             });
           }});
  reg.add({"priority-forward/flooding",
           "Thm 7.5 with explicit min-flood priority indexing",
           algorithm::priority_forward_flooding,
           [](const problem& prob, param_reader& params) {
             return priority_factory(prob, params, indexing_mode::flooding);
           }});
  reg.add({"priority-forward/charged",
           "Thm 7.5 with the charged recursive indexing substitution",
           algorithm::priority_forward_charged,
           [](const problem& prob, param_reader& params) {
             return priority_factory(prob, params, indexing_mode::charged);
           }});
  reg.add({"tstable/auto",
           "Thm 2.4: strongest feasible T-stable engine for (n, b, T, d)",
           algorithm::tstable_auto,
           [](const problem& prob, param_reader& params) {
             return tstable_factory(prob, params, tstable_engine::auto_select);
           }});
  reg.add({"tstable/patch",
           "§8 patch-sharing indexed broadcast (T^2 speedup machinery)",
           algorithm::tstable_patch,
           [](const problem& prob, param_reader& params) {
             return tstable_factory(prob, params, tstable_engine::patch);
           }});
  reg.add({"tstable/chunked",
           "§8 coefficient-amortizing chunked meta-rounds (factor T)",
           algorithm::tstable_chunked,
           [](const problem& prob, param_reader& params) {
             return tstable_factory(prob, params, tstable_engine::chunked);
           }});
  reg.add({"tstable/patch-gather",
           "§8.3 mode B: in-patch pipelined gathering, then patch broadcast",
           algorithm::tstable_patch_gather,
           [](const problem& prob, param_reader& params) {
             return tstable_factory(prob, params, tstable_engine::patch_gather);
           }});
  // Not part of the old enum facade: the T-independent control engine,
  // registered by name only (the registry is the extension point).
  reg.add({"tstable/plain",
           "per-round RLNC blocks under a T-stable adversary (control)",
           std::nullopt,
           [](const problem& prob, param_reader& params) {
             return tstable_factory(prob, params, tstable_engine::plain);
           }});
  reg.add({"centralized-rlnc",
           "Cor 2.6: headerless coding genie, Theta(n) floor",
           algorithm::centralized_rlnc,
           [](const problem& prob, param_reader& params) {
             centralized_config cfg;
             cfg.b_bits = prob.b;
             cfg.cap_factor =
                 cap_factor_param(params, "cap_factor", cfg.cap_factor);
             return make_protocol_machine([cfg](session_env& env) {
               return centralized_rlnc_machine(env.net, env.state, cfg);
             });
           },
           /*needs_full_connectivity=*/false});
  // The coded broadcasts register a plan and no `make`: build_protocol runs
  // the plan standalone, run_versioned_content once per epoch.
  reg.add({"rlnc-direct",
           "Lemma 5.3 indexed broadcast standalone (indexing granted)",
           algorithm::rlnc_direct, {},
           /*needs_full_connectivity=*/false,
           /*loss_tolerant=*/true, rlnc_direct_plan});
  // Registry-only backends (no legacy enum): the density/delay trade-offs
  // of practical RLNC (sparsenc; Firooz & Roy; Costa et al.).
  reg.add({"rlnc-sparse",
           "indexed broadcast, sparse combinations (Bernoulli rho) [rho]",
           std::nullopt, {},
           /*needs_full_connectivity=*/false,
           /*loss_tolerant=*/true, rlnc_sparse_plan});
  reg.add({"rlnc-gen",
           "indexed broadcast, generation/band coding [gen_size, "
           "band_overlap]",
           std::nullopt, {},
           /*needs_full_connectivity=*/false,
           /*loss_tolerant=*/true, rlnc_gen_plan});
}

// --- built-in adversaries ---------------------------------------------------

namespace {

// The composable modifier layer (edge-markov / churn / t-stable over any
// base family) builds its base through the registry so `base=` accepts the
// same names `list-adversaries` prints.  Bases must be non-composite —
// nesting modifiers through string params would re-read the same keys with
// conflicting meanings (and could recurse).
std::unique_ptr<adversary> build_base_adversary(const std::string& context,
                                                const std::string& base_name,
                                                const problem& prob,
                                                param_reader& params,
                                                std::uint64_t seed) {
  for (const char* composite : {"edge-markov", "churn", "compose"}) {
    if (base_name == composite) {
      throw std::invalid_argument("ncdn: " + context +
                                  " cannot stack on composite base '" +
                                  base_name + "' (pick a plain family)");
    }
  }
  return adversary_registry::instance()
      .at(base_name, "base adversary")
      .make(prob, params, seed);
}

// Wrapper and base randomness must be decorrelated even though both derive
// from the cell seed; fixed stream constants keep the split deterministic.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  return splitmix64(state);
}

// The random-connected generators draw once per extra edge, so a count
// past the n(n-1)/2 node pairs cannot add edges and, near 2^64, never ends.
std::size_t extra_edges_param(const problem& prob, param_reader& params) {
  const std::size_t extra = params.size("extra_edges", prob.n / 2);
  const std::size_t pairs = prob.n % 2 == 0 ? prob.n / 2 * (prob.n - 1)
                                            : (prob.n - 1) / 2 * prob.n;
  if (extra > pairs) {
    throw std::invalid_argument("ncdn: " + params.context() +
                                " needs extra_edges <= n(n-1)/2 = " +
                                std::to_string(pairs));
  }
  return extra;
}

std::unique_ptr<adversary> edge_markov_factory(const std::string& context,
                                               const problem& prob,
                                               param_reader& params,
                                               const std::string& base_name,
                                               std::uint64_t seed) {
  const double p_on =
      checked_probability(context, "p_on", params.real("p_on", 0.15), false);
  const double p_off =
      checked_probability(context, "p_off", params.real("p_off", 0.3), true);
  auto base = build_base_adversary(context, base_name, prob, params,
                                   derive_seed(seed, 1));
  return make_edge_markov(std::move(base), p_on, p_off, derive_seed(seed, 2));
}

std::unique_ptr<adversary> churn_factory(const std::string& context,
                                         const problem& prob,
                                         param_reader& params,
                                         const std::string& base_name,
                                         std::uint64_t seed) {
  const double rate =
      checked_probability(context, "rate", params.real("rate", 0.05), true);
  if (rate >= 1.0) {
    throw std::invalid_argument("ncdn: " + context + " needs rate in [0, 1)");
  }
  const double rejoin = checked_probability(context, "rejoin",
                                            params.real("rejoin", 0.25), true);
  const std::size_t min_live =
      params.size("min_live", std::max<std::size_t>(2, prob.n / 2));
  if (min_live < 2 || min_live > prob.n) {
    throw std::invalid_argument("ncdn: " + context +
                                " needs min_live in [2, n]");
  }
  const round_t max_down = params.u64("max_down", 8);
  if (max_down < 1) {
    throw std::invalid_argument("ncdn: " + context + " needs max_down >= 1");
  }
  auto base = build_base_adversary(context, base_name, prob, params,
                                   derive_seed(seed, 3));
  return make_churn(std::move(base), rate, rejoin, min_live, max_down,
                    derive_seed(seed, 4));
}

}  // namespace

void register_builtins(adversary_registry& reg) {
  reg.add({"static-path", "fixed path (static-network degenerate case)",
           topology_kind::static_path,
           [](const problem& prob, param_reader&, std::uint64_t) {
             return make_static_path(prob.n);
           }});
  reg.add({"static-star", "fixed star (diameter 2, hub bottleneck)",
           topology_kind::static_star,
           [](const problem& prob, param_reader&, std::uint64_t) {
             return make_static_star(prob.n);
           }});
  reg.add({"permuted-path",
           "fresh randomly-permuted path every round (hard oblivious)",
           topology_kind::permuted_path,
           [](const problem& prob, param_reader&, std::uint64_t seed) {
             return make_permuted_path(prob.n, seed);
           }});
  reg.add({"random-connected",
           "fresh sparse random connected graph every round [extra_edges]",
           topology_kind::random_connected,
           [](const problem& prob, param_reader& params, std::uint64_t seed) {
             return make_random_connected(
                 prob.n, extra_edges_param(prob, params), seed);
           }});
  reg.add({"random-geometric",
           "fresh geometric graph every round (ad-hoc mesh) [radius]",
           topology_kind::random_geometric,
           [](const problem& prob, param_reader& params, std::uint64_t seed) {
             const double radius = params.real(
                 "radius", 1.8 / std::sqrt(static_cast<double>(prob.n)));
             // The generator compares squared distances, so a negative
             // radius would silently act as its absolute value.
             if (!(radius >= 0.0)) {
               throw std::invalid_argument("ncdn: " + params.context() +
                                           " needs radius >= 0");
             }
             return make_random_geometric(prob.n, radius, seed);
           }});
  reg.add({"sorted-path",
           "adaptive: path sorted by current knowledge [ascending]",
           topology_kind::sorted_path,
           [](const problem&, param_reader& params, std::uint64_t) {
             const bool ascending = params.flag("ascending", true);
             return std::make_unique<sorted_path_adversary>(ascending);
           }});
  // Not part of the old enum facade: Kuhn et al.'s T-interval connectivity
  // (§9 asks about extending the patch algorithms to it).
  reg.add({"t-interval",
           "random spanning tree fixed per T-round window, extra edges "
           "redrawn every round [t, extra_edges]",
           std::nullopt,
           [](const problem& prob, param_reader& params, std::uint64_t seed) {
             const round_t t = params.u64("t", 4);
             if (t < 1) {
               throw std::invalid_argument("ncdn: t-interval needs t >= 1");
             }
             return make_t_interval(prob.n, t,
                                    extra_edges_param(prob, params), seed);
           }});
  // The dynamic-adversary engine (PR5): the paper's worst-case model class
  // and the evolving/ad-hoc graph families of the related RLNC evaluations
  // (Ashrafi-Roy-Firooz; Firooz-Roy), plus a generic modifier layer.
  reg.add({"static-clique", "fixed complete graph (dense-mixing control)",
           std::nullopt,
           [](const problem& prob, param_reader&, std::uint64_t) {
             return make_static_clique(prob.n);
           }});
  // T-stability over random-connected: one fresh graph per window, held
  // fixed for all of it (t-interval redraws its extra edges every round).
  reg.add({"t-interval-random",
           "fresh random connected subgraph held fixed per T-round window "
           "(the paper's T-interval model class) [t, extra_edges]",
           std::nullopt,
           [](const problem& prob, param_reader& params, std::uint64_t seed) {
             const round_t t = params.u64("t", 4);
             if (t < 1) {
               throw std::invalid_argument(
                   "ncdn: t-interval-random needs t >= 1");
             }
             return make_t_stable(
                 make_random_connected(prob.n,
                                       extra_edges_param(prob, params), seed),
                 t);
           }});
  reg.add({"edge-markov",
           "per-edge on/off Markov chains over a base edge set "
           "[p_on, p_off, base]",
           std::nullopt,
           [](const problem& prob, param_reader& params, std::uint64_t seed) {
             const std::string base = params.str("base", "static-clique");
             return edge_markov_factory("adversary 'edge-markov'", prob,
                                        params, base, seed);
           }});
  reg.add({"churn",
           "nodes depart/arrive (live set stays connected; bounded "
           "downtime) [rate, rejoin, min_live, max_down, base]",
           std::nullopt,
           [](const problem& prob, param_reader& params, std::uint64_t seed) {
             const std::string base = params.str("base", "random-connected");
             return churn_factory("adversary 'churn'", prob, params, base,
                                  seed);
           }});
  reg.add({"adaptive-min-cut",
           "adaptive: splits the knowledge frontier with a single-bridge "
           "cut every round [side]",
           std::nullopt,
           [](const problem&, param_reader& params, std::uint64_t) {
             const std::string side = params.str("side", "clique");
             if (side != "clique" && side != "path") {
               throw std::invalid_argument(
                   "ncdn: adaptive-min-cut needs side=clique or side=path");
             }
             return make_adaptive_min_cut(side == "clique");
           }});
  reg.add({"compose",
           "modifier over a base family: modifier=edge-markov|churn|"
           "t-stable, base=<any plain family> [plus their params]",
           std::nullopt,
           [](const problem& prob, param_reader& params, std::uint64_t seed) {
             const std::string base = params.str("base", "random-geometric");
             const std::string modifier =
                 params.str("modifier", "edge-markov");
             const std::string context =
                 "adversary 'compose' (modifier " + modifier + ")";
             if (modifier == "edge-markov") {
               return edge_markov_factory(context, prob, params, base, seed);
             }
             if (modifier == "churn") {
               return churn_factory(context, prob, params, base, seed);
             }
             if (modifier == "t-stable") {
               const round_t t = params.u64("t", 4);
               if (t < 1) {
                 throw std::invalid_argument("ncdn: " + context +
                                             " needs t >= 1");
               }
               return make_t_stable(
                   build_base_adversary(context, base, prob, params,
                                        derive_seed(seed, 5)),
                   t);
             }
             throw std::invalid_argument(
                 "ncdn: compose needs modifier=edge-markov, churn, or "
                 "t-stable (got '" + modifier + "')");
           }});
}

// --- spec -> object builders ------------------------------------------------

// The spec forms: the spec's own map is the whole namespace, so its problem
// keys apply here and a key the entry did not read is rejected.
std::unique_ptr<protocol_machine> build_protocol(const problem& prob,
                                                 const protocol_spec& spec) {
  param_reader params(spec.params, "protocol '" + spec.name + "'");
  auto machine =
      build_protocol(apply_problem_params(prob, params), spec.name, params);
  params.expect_fully_consumed();
  return machine;
}

std::unique_ptr<protocol_machine> build_protocol(const problem& prob,
                                                 const std::string& name,
                                                 param_reader& params) {
  const protocol_entry& entry =
      protocol_registry::instance().at(name, "protocol");
  params.set_context("protocol '" + name + "'");
  if (entry.make) return entry.make(prob, params);
  coded_backend_plan plan = entry.coded_plan(prob, params);
  // Messages cost k + d bits, which must fit the network's message budget.
  const double limit = message_bit_limit(prob.n, prob.b, prob.slack);
  if (static_cast<double>(prob.k + prob.d) > limit) {
    throw std::invalid_argument(
        "ncdn: " + name + " sends " + std::to_string(prob.k + prob.d) +
        "-bit coded rows (k + d), over the message budget slack * b + " +
        "framing = " + std::to_string(static_cast<std::size_t>(limit)) +
        " bits; raise b or slack");
  }
  return make_protocol_machine([plan = std::move(plan)](session_env& env) {
    return coded_broadcast_run(env, plan);
  });
}

coded_backend_plan build_coded_plan(const problem& prob,
                                    const std::string& name,
                                    param_reader& params) {
  const protocol_entry& entry =
      protocol_registry::instance().at(name, "protocol");
  if (!entry.coded_plan) {
    throw std::invalid_argument(
        "ncdn: protocol '" + name +
        "' cannot drive a versioned-content workload; the epoch driver "
        "re-seeds a coding backend per delta set, so pick a coded-broadcast "
        "protocol (rlnc-direct, rlnc-sparse, rlnc-gen)");
  }
  params.set_context("protocol '" + name + "'");
  return entry.coded_plan(prob, params);
}

std::unique_ptr<adversary> build_adversary(const problem& prob,
                                           const adversary_spec& spec,
                                           std::uint64_t seed) {
  param_reader params(spec.params, "adversary '" + spec.name + "'");
  auto adv = build_adversary(apply_problem_params(prob, params), spec.name,
                             params, seed);
  params.expect_fully_consumed();
  return adv;
}

std::unique_ptr<adversary> build_adversary(const problem& prob,
                                           const std::string& name,
                                           param_reader& params,
                                           std::uint64_t seed) {
  const adversary_entry& entry =
      adversary_registry::instance().at(name, "adversary");
  params.set_context("adversary '" + name + "'");
  auto adv = entry.make(prob, params, seed);
  if (prob.t_stability > 1) {
    adv = make_t_stable(std::move(adv), prob.t_stability);
  }
  return adv;
}

}  // namespace ncdn
