// ncdn-bench: one benchmark workload in one process, timed from outside the
// library.
//
// run.py (next to this file) starts this binary once per measured process,
// so each process's peak RSS belongs to one session or one sweep.  Every
// layer is timed here, in bench code, around calls into the library's
// public interfaces; nothing under src/ knows it is being measured.
//
//   ncdn_bench session --alg A --adv B [--link SPEC] [--param K=V]...
//                      [--seed S] [--mode plain|trace|count]
//                      [--trace-out PATH]
//   ncdn_bench sweep [--seed S] [--golden PATH] [--mode plain|trace]
//                    [--trace-out PATH]
//
// Modes:
//   plain  untraced.  The session is constructed setups_per_process times,
//          each construction timed; the last instance runs, timed from its
//          first step() to completion.
//   trace  registers timing decorators under "traced:<name>" in the
//          adversary, link and protocol registries and runs the session
//          through them.  Each round's span (bounded by session observer
//          timestamps) keeps busy ns and call counts per layer; the spans
//          are written to --trace-out at exit.  Afterwards every
//          (node, token) pair is decoded and compared to its payload.
//   count  the same decorators, untimed, probing rank() around every
//          reception to count the ones that raised it.  A separate pass:
//          the probe forces the generation decoder's lazy reduction early,
//          which would move its query time in a timed run.
//
// Prints one JSON object on stdout.  Exit status 0 when the workload ran
// (run.py judges its outputs), 2 on usage or spec errors.
#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <regex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coding/backend.hpp"
#include "core/session.hpp"
#include "core/sysinfo.hpp"
#include "protocols/rlnc_broadcast.hpp"
#include "runner/json.hpp"
#include "runner/sweep.hpp"

namespace {

using namespace ncdn;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// A session process times this many constructions (setup_s samples); one
// instance is alive at a time, so peak RSS stays one session's.
constexpr std::size_t setups_per_process = 5;

// The sweep workload: every smoke-tier (n16) scenario x sweep_seeds trials
// on sweep_threads workers, one cell per worker batch.
const char* const sweep_tier = "smoke";
constexpr std::size_t sweep_seeds = 4;
constexpr std::size_t sweep_threads = 2;

// --- the trace ---------------------------------------------------------------

enum layer : std::size_t {
  layer_topology,  // adversary::topology (dynnet)
  layer_loss,      // the link model's loss process (linkmodel)
  layer_build,     // coding_backend::make_node_coder
  layer_encode,    // node_coder::make_combination / deficit_report
  layer_insert,    // node_coder::insert / observe_feedback
  layer_query,     // rank, complete, can_decode, decode, decode_progress,
                   // xor_word_ops
  layer_count
};

constexpr std::array<const char*, layer_count> layer_names = {
    "dynnet.topology", "linkmodel.loss", "coding.build",
    "coding.encode",   "coding.insert",  "coding.query"};

struct layer_tally {
  std::uint64_t ns = 0;  // self time: nested layers' time is subtracted
  std::uint64_t calls = 0;
};

using layer_tallies = std::array<layer_tally, layer_count>;

struct round_span {
  std::uint64_t round = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  layer_tallies layers{};
};

/// Process-wide trace state.  Session workloads step on one thread, and the
/// decorators reach this from inside library calls, so it is a singleton.
struct tracer {
  bool timing = false;    // layer scopes read the clock
  bool counting = false;  // count mode: probe rank() around receptions
  bool probe = false;     // counting, and the seeds are in
  layer_tallies current{};
  layer_tallies total{};
  std::uint64_t nested_ns = 0;  // time of scopes nested in the open one
  std::uint64_t mark_ns = 0;    // start of the open round span
  std::vector<round_span> spans;
  std::uint64_t edges = 0;
  std::uint64_t inserts = 0;
  std::uint64_t rank_gains = 0;
  // The coded session of a traced broadcast, kept past the protocol's end
  // so the payload check can decode it after the timed run.
  std::shared_ptr<rlnc_session> coding;

  void open(std::uint64_t now) {
    mark_ns = now;
    current = {};
  }
  void close_round(std::uint64_t round, std::uint64_t now) {
    spans.push_back({round, mark_ns, now, current});
    fold();
    mark_ns = now;
  }
  /// Adds the open span's tallies to the totals (the tail after the last
  /// round has no span of its own).
  void fold() {
    for (std::size_t l = 0; l < layer_count; ++l) {
      total[l].ns += current[l].ns;
      total[l].calls += current[l].calls;
    }
    current = {};
  }
};

tracer& trace_state() {
  static tracer t;
  return t;
}

/// Times one call into a layer.  Self time excludes nested layer calls (an
/// adaptive adversary reading decoder ranks, say), so the layers' busy
/// times never double-count.
class layer_scope {
 public:
  explicit layer_scope(layer l) : layer_(l) {
    tracer& t = trace_state();
    if (!t.timing) return;
    active_ = true;
    outer_nested_ = t.nested_ns;
    t.nested_ns = 0;
    start_ = now_ns();
  }
  ~layer_scope() {
    if (!active_) return;
    const std::uint64_t elapsed = now_ns() - start_;
    tracer& t = trace_state();
    layer_tally& tally = t.current[layer_];
    tally.ns += elapsed - std::min(elapsed, t.nested_ns);
    ++tally.calls;
    t.nested_ns = outer_nested_ + elapsed;
  }
  layer_scope(const layer_scope&) = delete;
  layer_scope& operator=(const layer_scope&) = delete;
  layer_scope(layer_scope&&) = delete;
  layer_scope& operator=(layer_scope&&) = delete;

 private:
  layer layer_;
  bool active_ = false;
  std::uint64_t outer_nested_ = 0;
  std::uint64_t start_ = 0;
};

// --- timing decorators over the public interfaces ---------------------------

class timed_coder final : public node_coder {
 public:
  explicit timed_coder(std::unique_ptr<node_coder> inner)
      : inner_(std::move(inner)) {}

  using node_coder::make_combination;

  void insert(const bitvec& row) override {
    tracer& t = trace_state();
    if (!t.probe) {
      const layer_scope scope(layer_insert);
      inner_->insert(row);
      return;
    }
    // For generation layouts rank() is the decodable-token count, so a
    // "gain" there is a reception that made a token decodable.
    const std::size_t before = inner_->rank();
    inner_->insert(row);
    ++t.inserts;
    if (inner_->rank() > before) ++t.rank_gains;
  }
  std::optional<bitvec> make_combination(rng& r, word_arena* pool) override {
    const layer_scope scope(layer_encode);
    return inner_->make_combination(r, pool);
  }
  std::size_t rank() const override {
    const layer_scope scope(layer_query);
    return inner_->rank();
  }
  bool complete() const override {
    const layer_scope scope(layer_query);
    return inner_->complete();
  }
  bool can_decode(std::size_t i) const override {
    const layer_scope scope(layer_query);
    return inner_->can_decode(i);
  }
  bitvec decode(std::size_t i) const override {
    const layer_scope scope(layer_query);
    return inner_->decode(i);
  }
  std::size_t decode_progress() const override {
    const layer_scope scope(layer_query);
    return inner_->decode_progress();
  }
  std::uint64_t xor_word_ops() const override {
    const layer_scope scope(layer_query);
    return inner_->xor_word_ops();
  }
  const std::vector<std::uint32_t>* deficit_report() override {
    const layer_scope scope(layer_encode);
    return inner_->deficit_report();
  }
  void observe_feedback(const std::vector<std::uint32_t>& report) override {
    const layer_scope scope(layer_insert);
    inner_->observe_feedback(report);
  }

 private:
  std::unique_ptr<node_coder> inner_;
};

class timed_backend final : public coding_backend {
 public:
  explicit timed_backend(std::unique_ptr<coding_backend> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<node_coder> make_node_coder(
      std::size_t items, std::size_t item_bits) const override {
    const layer_scope scope(layer_build);
    return std::make_unique<timed_coder>(
        inner_->make_node_coder(items, item_bits));
  }

 private:
  std::unique_ptr<coding_backend> inner_;
};

class timed_adversary final : public adversary {
 public:
  explicit timed_adversary(std::unique_ptr<adversary> inner)
      : inner_(std::move(inner)) {}

  const graph& topology(round_t r, const knowledge_view& view) override {
    const graph* g = nullptr;
    {
      const layer_scope scope(layer_topology);
      g = &inner_->topology(r, view);
    }
    trace_state().edges += g->edge_count();
    return *g;
  }
  std::string name() const override { return inner_->name(); }
  bool full_connectivity() const override {
    return inner_->full_connectivity();
  }
  void set_rebuild_mode(bool rebuild) override {
    inner_->set_rebuild_mode(rebuild);
  }
  const std::vector<char>* live_mask() const override {
    return inner_->live_mask();
  }

 private:
  std::unique_ptr<adversary> inner_;
};

/// The library's coded_broadcast_run (private to core/registry.cpp),
/// re-driven over the public rlnc_session so the backend can be the timing
/// decorator and the decoded state outlives the protocol.
round_task<protocol_result> traced_broadcast(session_env& env,
                                             coded_backend_plan plan) {
  const token_distribution& dist = env.dist;
  NCDN_EXPECTS(2 * env.prob.b >= dist.k() + env.prob.d);
  tracer& t = trace_state();
  t.coding = std::make_shared<rlnc_session>(env.prob.n, dist.k(), env.prob.d,
                                            plan.make_backend());
  rlnc_session& coding = *t.coding;
  coding.set_arena(env.arena);
  for (node_id u = 0; u < env.prob.n; ++u) {
    for (std::size_t i : dist.held_by_node[u]) {
      coding.seed(u, i, dist.tokens[i].payload);
    }
  }
  t.probe = t.counting;  // count receptions, not seeds
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

const char* const traced_prefix = "traced:";

void register_traced_adversary(const std::string& name) {
  adversary_registry& reg = adversary_registry::instance();
  const adversary_entry* inner = reg.find(name);
  if (inner == nullptr) {
    throw std::invalid_argument("ncdn_bench: unknown adversary '" + name + "'");
  }
  reg.add({traced_prefix + name, "timing decorator over " + name,
           std::nullopt,
           [make = inner->make](const problem& prob, param_reader& params,
                                std::uint64_t seed) {
             return std::unique_ptr<adversary>(
                 std::make_unique<timed_adversary>(make(prob, params, seed)));
           }});
}

void register_traced_link(const std::string& name) {
  link_registry& reg = link_registry::instance();
  const link_entry* inner = reg.find(name);
  if (inner == nullptr) {
    throw std::invalid_argument("ncdn_bench: unknown link model '" + name +
                                "'");
  }
  reg.add({traced_prefix + name, "timing decorator over " + name,
           [make_loss = inner->make_loss](param_reader& params,
                                          std::uint64_t seed) {
             return std::function<bool(round_t, node_id, node_id)>(
                 [loss = make_loss(params, seed)](round_t r, node_id from,
                                                  node_id to) {
                   const layer_scope scope(layer_loss);
                   return loss(r, from, to);
                 });
           }});
}

/// Coded protocols get a traced twin that runs traced_broadcast over a
/// timed backend; the rest run unwrapped.  Returns the name to run.
std::string register_traced_protocol(const std::string& name) {
  protocol_registry& reg = protocol_registry::instance();
  const protocol_entry* inner = reg.find(name);
  if (inner == nullptr) {
    throw std::invalid_argument("ncdn_bench: unknown protocol '" + name + "'");
  }
  if (!inner->coded_plan) return name;
  protocol_entry entry = *inner;  // same connectivity / loss flags
  entry.name = traced_prefix + name;
  entry.summary = "timing decorator over " + name;
  entry.legacy = std::nullopt;
  entry.make = [name, plan_of = inner->coded_plan](const problem& prob,
                                                   param_reader& params) {
    coded_backend_plan plan = plan_of(prob, params);
    if (2 * prob.b < prob.k + prob.d) {
      throw std::invalid_argument("ncdn_bench: " + name +
                                  " needs b >= (k + d) / 2");
    }
    plan.make_backend = [make = std::move(plan.make_backend)] {
      return std::unique_ptr<coding_backend>(
          std::make_unique<timed_backend>(make()));
    };
    return make_protocol_machine(
        [plan = std::move(plan)](session_env& env) {
          return traced_broadcast(env, plan);
        });
  };
  reg.add(std::move(entry));
  return traced_prefix + name;
}

// --- measurement helpers -----------------------------------------------------

json::value to_json(const std::vector<std::uint64_t>& values) {
  json::array out;
  out.reserve(values.size());
  for (const std::uint64_t v : values) out.emplace_back(v);
  return json::value{std::move(out)};
}

json::value layers_json(const layer_tallies& tallies) {
  json::object out;
  for (std::size_t l = 0; l < layer_count; ++l) {
    json::object one;
    json::put(one, "busy_ns", tallies[l].ns);
    json::put(one, "calls", tallies[l].calls);
    json::put(out, layer_names[l], json::value{std::move(one)});
  }
  return json::value{std::move(out)};
}

/// A trace span: children name their parent, the whole run (id 0).
json::object span_json(std::size_t id, const char* name,
                       std::uint64_t start_ns, std::uint64_t end_ns) {
  json::object s;
  json::put(s, "id", id);
  if (id != 0) json::put(s, "parent", 0);
  json::put(s, "name", name);
  json::put(s, "start_ns", start_ns);
  json::put(s, "end_ns", end_ns);
  return s;
}

bool write_trace(const std::string& path, json::object doc,
                 json::array spans) {
  json::put(doc, "spans", json::value{std::move(spans)});
  const std::string text = json::value{std::move(doc)}.dump_pretty();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  bool ok = f != nullptr &&
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "ncdn_bench: cannot write %s\n", path.c_str());
  return ok;
}

/// Output check, run after the timed rounds: every (node, token) pair
/// decodes to the token's payload (coded runs), or is known (forwarding).
void put_pair_check(json::object& out, const session& s, const tracer& t) {
  const token_distribution& dist = s.distribution();
  std::uint64_t wrong = 0;
  for (node_id u = 0; u < dist.n; ++u) {
    for (std::size_t i = 0; i < dist.k(); ++i) {
      const bool ok =
          t.coding != nullptr
              ? t.coding->can_decode(u, i) &&
                    t.coding->decode(u, i) == dist.tokens[i].payload
              : s.state().knows(u, i);
      if (!ok) ++wrong;
    }
  }
  json::put(out, "pairs_checked", dist.n * dist.k());
  json::put(out, "pairs_wrong", wrong);
}

std::string read_text(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  std::array<char, 4096> buf{};
  std::size_t got = 0;
  while ((got = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
    out.append(buf.data(), got);
  }
  std::fclose(f);
  return out;
}

// --- command line ------------------------------------------------------------

struct options {
  std::string command;  // "session" | "sweep"
  std::string mode = "plain";
  std::string alg;
  std::string adv;
  std::string link;
  param_map params;
  std::uint64_t seed = 1;
  std::string golden;
  std::string trace_out;
};

bool parse_count(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0') return false;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text) return false;
  out = v;
  return true;
}

std::optional<options> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  options o;
  o.command = argv[1];
  if (o.command != "session" && o.command != "sweep") return std::nullopt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "ncdn_bench: %s needs a value\n", arg.c_str());
      return std::nullopt;
    }
    const char* value = argv[++i];
    if (arg == "--mode") {
      o.mode = value;
    } else if (arg == "--alg") {
      o.alg = value;
    } else if (arg == "--adv") {
      o.adv = value;
    } else if (arg == "--link") {
      o.link = value;
    } else if (arg == "--param") {
      const char* eq = std::strchr(value, '=');
      if (eq == nullptr || eq == value) {
        std::fprintf(stderr, "ncdn_bench: --param needs KEY=VALUE\n");
        return std::nullopt;
      }
      o.params[std::string(value, eq)] = std::string(eq + 1);
    } else if (arg == "--golden") {
      o.golden = value;
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else if (arg != "--seed" || !parse_count(value, o.seed)) {
      std::fprintf(stderr, "ncdn_bench: bad option %s %s\n", arg.c_str(),
                   value);
      return std::nullopt;
    }
  }
  const bool known_mode =
      o.mode == "plain" || o.mode == "trace" || o.mode == "count";
  if (!known_mode || (o.command == "sweep" && o.mode == "count") ||
      (o.command == "session" && (o.alg.empty() || o.adv.empty()))) {
    return std::nullopt;
  }
  return o;
}

// --- the session workloads ---------------------------------------------------

int run_session(const options& o) {
  tracer& t = trace_state();
  const bool traced = o.mode != "plain";
  std::string alg = o.alg;
  std::string adv = o.adv;
  link_spec link;
  if (!o.link.empty()) link = parse_link_spec(o.link);
  if (traced) {
    alg = register_traced_protocol(alg);
    register_traced_adversary(adv);
    adv = traced_prefix + adv;
    if (!link.empty()) {
      register_traced_link(link.name);
      link.name = traced_prefix + link.name;
    }
    t.counting = o.mode == "count";
  }

  // The same defaults as `ncdn-run run`; the workload's params reshape them.
  problem prob;
  prob.n = 16;
  prob.k = 16;
  prob.d = 8;
  prob.b = 32;

  json::array setup_s;
  std::unique_ptr<session> s;
  for (std::size_t i = 0; i < (traced ? 1 : setups_per_process); ++i) {
    s.reset();  // one instance alive at a time, so peak RSS is one session
    const std::uint64_t t0 = now_ns();
    s = std::make_unique<session>(prob, protocol_spec{alg, o.params},
                                  adversary_spec{adv, o.params}, link,
                                  o.seed);
    setup_s.emplace_back(seconds(now_ns() - t0));
  }

  // Token forwarding has no decode surface: a node can output a token once
  // it knows it, so there the decode-delay histogram is the per-round growth
  // of the knowledge total (bucket 0 is the initial placement, as in the
  // coded sessions' histogram).
  std::size_t known = 0;
  for (node_id u = 0; u < s->distribution().n; ++u) {
    known += s->state().known_count(u);
  }
  std::vector<std::uint64_t> known_hist{known};
  s->set_observer([&](const round_metrics& m) {
    if (t.timing) t.close_round(m.round, now_ns());
    if (m.total_knowledge > known) {
      if (known_hist.size() <= m.round) known_hist.resize(m.round + 1);
      known_hist[m.round] += m.total_knowledge - known;
      known = m.total_knowledge;
    }
  });

  bool failed = false;
  t.timing = o.mode == "trace";
  const std::uint64_t start = now_ns();
  t.open(start);
  try {
    while (s->step()) {
    }
  } catch (const std::exception& err) {
    std::fprintf(stderr, "ncdn_bench: session failed: %s\n", err.what());
    failed = true;
  }
  const std::uint64_t end = now_ns();
  t.timing = false;
  t.fold();

  json::object out;
  json::put(out, "setup_s", json::value{std::move(setup_s)});
  json::put(out, "wall_s", seconds(end - start));
  json::put(out, "failed", failed);
  json::put(out, "peak_rss_bytes", peak_rss_bytes());
  if (!failed) {
    const run_report& rep = s->report();
    const session_metrics& m = rep.metrics;
    json::put(out, "complete", rep.complete);
    json::put(out, "rounds", std::uint64_t{rep.rounds});
    json::put(out, "wire_bits", m.total_message_bits);
    json::put(out, "xor_words", m.total_elimination_xors);
    json::put(out, "arena_allocations", s->arena().allocations());
    json::put(out, "arena_reuses", s->arena().reuses());
    json::put(out, "delay_hist", to_json(m.decode_delay_active
                                             ? m.decode_delay_hist
                                             : known_hist));
    json::put(out, "copies_sent", m.total_messages_sent);
    json::put(out, "copies_delivered", m.total_messages_delivered);
    json::put(out, "copies_dropped", m.total_messages_dropped);
  }

  if (o.mode == "trace") {
    const std::uint64_t wall_ns = end - start;
    std::uint64_t busy = 0;
    for (const layer_tally& l : t.total) busy += l.ns;
    json::put(out, "layers", layers_json(t.total));
    json::put(out, "edges", t.edges);
    json::put(out, "residual_s", seconds(wall_ns - std::min(busy, wall_ns)));
    std::vector<std::uint64_t> round_ns;
    round_ns.reserve(t.spans.size());
    for (const round_span& span : t.spans) {
      round_ns.push_back(span.end_ns - span.start_ns);
    }
    json::put(out, "round_ns", to_json(round_ns));
    if (!failed) put_pair_check(out, *s, t);

    if (!o.trace_out.empty()) {
      json::array spans;
      spans.emplace_back(span_json(0, "run", 0, wall_ns));
      for (std::size_t i = 0; i < t.spans.size(); ++i) {
        const round_span& span = t.spans[i];
        json::object r = span_json(i + 1, "round", span.start_ns - start,
                                   span.end_ns - start);
        json::put(r, "round", span.round);
        json::put(r, "layers", layers_json(span.layers));
        spans.emplace_back(std::move(r));
      }
      json::object doc;
      json::put(doc, "alg", o.alg);
      json::put(doc, "adv", o.adv);
      json::put(doc, "link", o.link);
      json::put(doc, "seed", std::to_string(o.seed));
      if (!write_trace(o.trace_out, std::move(doc), std::move(spans))) {
        return 2;
      }
    }
  }
  if (o.mode == "count") {
    json::put(out, "inserts", t.inserts);
    json::put(out, "rank_gains", t.rank_gains);
  }
  t.coding.reset();
  std::printf("%s\n", json::value{std::move(out)}.dump().c_str());
  return 0;
}

// --- the sweep workload ------------------------------------------------------

/// The CI golden slice: the n16 cells minus the link/content/matrix axes,
/// two trials from base seed 1 (tools/ci/golden_sweep_n16.json).
std::string golden_slice_json() {
  const std::regex keep("^(?!.*(link:|content:|sched:|dec:))");
  std::vector<runner::scenario> scens;
  for (runner::scenario& s : runner::scenarios_matching("n16")) {
    if (std::regex_search(s.name, keep)) scens.push_back(std::move(s));
  }
  runner::sweep_options opts;
  opts.trials = 2;
  opts.base_seed = 1;
  opts.threads = 2;
  return runner::sweep_to_json(runner::run_sweep(std::move(scens), opts))
             .dump() +
         "\n";
}

int run_sweep_workload(const options& o) {
  const std::uint64_t t0 = now_ns();
  std::vector<runner::scenario> scens = runner::scenarios_in_tier(sweep_tier);
  const std::uint64_t t1 = now_ns();
  runner::sweep_options opts;
  opts.trials = sweep_seeds;
  opts.base_seed = o.seed;
  opts.threads = sweep_threads;
  opts.batch = 1;
  const runner::sweep_result result =
      runner::run_sweep(std::move(scens), opts);
  const std::uint64_t t2 = now_ns();
  const std::string text = runner::sweep_to_json(result).dump() + "\n";
  const std::uint64_t t3 = now_ns();

  std::uint64_t rounds = 0;
  std::uint64_t wire_bits = 0;
  std::uint64_t xor_words = 0;
  std::vector<std::uint64_t> hist;
  json::array incomplete;
  for (const runner::cell_result& cell : result.cells) {
    const session_metrics& m = cell.report.metrics;
    rounds += cell.report.rounds;
    wire_bits += m.total_message_bits;
    xor_words += m.total_elimination_xors;
    if (m.decode_delay_active) {
      if (hist.size() < m.decode_delay_hist.size()) {
        hist.resize(m.decode_delay_hist.size());
      }
      for (std::size_t b = 0; b < m.decode_delay_hist.size(); ++b) {
        hist[b] += m.decode_delay_hist[b];
      }
    }
    if (!cell.report.complete) {
      incomplete.emplace_back(result.scenarios[cell.scenario_index].name);
    }
  }

  json::object out;
  json::array setup_s;
  setup_s.emplace_back(seconds(t1 - t0));
  json::put(out, "setup_s", json::value{std::move(setup_s)});
  json::put(out, "wall_s", seconds(t3 - t1));
  json::put(out, "failed", false);
  json::put(out, "peak_rss_bytes", peak_rss_bytes());
  json::put(out, "rounds", rounds);
  json::put(out, "wire_bits", wire_bits);
  json::put(out, "xor_words", xor_words);
  json::put(out, "delay_hist", to_json(hist));
  json::put(out, "cells", result.cells.size());
  json::put(out, "json_bytes", text.size());
  json::put(out, "incomplete", json::value{std::move(incomplete)});
  json::object runner_layer;
  json::put(runner_layer, "expand_s", seconds(t1 - t0));
  json::put(runner_layer, "sweep_s", seconds(t2 - t1));
  json::put(runner_layer, "json_s", seconds(t3 - t2));
  json::put(out, "runner", json::value{std::move(runner_layer)});

  if (!o.golden.empty()) {
    const std::string want = read_text(o.golden);
    const bool match = !want.empty() && golden_slice_json() == want;
    json::put(out, "golden_match", match);
  }
  if (o.mode == "trace" && !o.trace_out.empty()) {
    json::array spans;
    spans.emplace_back(span_json(0, "run", 0, t3 - t0));
    spans.emplace_back(span_json(1, "runner.expand", 0, t1 - t0));
    spans.emplace_back(span_json(2, "runner.sweep", t1 - t0, t2 - t0));
    spans.emplace_back(span_json(3, "runner.json", t2 - t0, t3 - t0));
    json::object doc;
    json::put(doc, "tier", sweep_tier);
    json::put(doc, "seeds", sweep_seeds);
    json::put(doc, "threads", sweep_threads);
    json::put(doc, "seed", std::to_string(o.seed));
    if (!write_trace(o.trace_out, std::move(doc), std::move(spans))) return 2;
  }
  std::printf("%s\n", json::value{std::move(out)}.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<options> o = parse_args(argc, argv);
  if (!o) {
    std::fprintf(stderr,
                 "usage: %s session --alg A --adv B [--link SPEC] "
                 "[--param K=V]... [--seed S] "
                 "[--mode plain|trace|count] [--trace-out PATH]\n"
                 "       %s sweep [--seed S] [--golden PATH] "
                 "[--mode plain|trace] [--trace-out PATH]\n",
                 argv[0], argv[0]);
    return 2;
  }
  try {
    return o->command == "session" ? run_session(*o) : run_sweep_workload(*o);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 2;
  }
}
