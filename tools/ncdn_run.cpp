// ncdn-run — scenario sweep CLI over the registry-driven session API.
//
//   ncdn-run list [PATTERN]          list registry scenarios (name match)
//   ncdn-run list-algorithms         every registered protocol + summary
//   ncdn-run list-adversaries        every registered adversary + summary
//   ncdn-run list-links              every registered link model + summary
//   ncdn-run list-contents           every registered content model + summary
//   ncdn-run list-schedules          encoder schedules (sched=) and decoder
//                                    strategies (dec=) of the rlnc-* matrix
//   ncdn-run run NAME [options]      one named scenario, one seed
//   ncdn-run run --alg A --topo T [options]
//                                    ad-hoc cell from registry spec names
//                                    (defaults: n=16 k=16 d=8 b=32)
//     --seed S          seed                            (default 1)
//     --param K=V       spec override, repeatable: problem keys (n, k, d,
//                       b, t_stability, slack, placement) or factory keys
//                       (radius, extra_edges, epoch_cap, phase_factor, ...)
//     --link SPEC       per-edge channel "name[,key=value]..." (see
//                       src/linkmodel; e.g. --link bernoulli,p=0.2 or
//                       --link perfect,delay_max=3); requires a
//                       loss-tolerant protocol
//     --content SPEC    versioned-content workload "name[,key=value]..."
//                       (see src/content; e.g. --content steady or
//                       --content rolling,epochs=8); requires a
//                       coded-broadcast protocol (rlnc-*)
//     --trace           print a per-round observer line while running
//                       (gains sent/delivered/dropped/in-flight columns
//                       when a link model is active)
//   ncdn-run sweep [options]         parallel sweep, JSON results
//     --match PATTERN   substring filter over scenario names (repeatable;
//                       a scenario is swept if any pattern matches)
//     --tier NAME       keep only cells in tier smoke|full|nightly|
//                       nightly-xl (applied after --match; the CI slice
//                       selector)
//     --filter REGEX    ECMAScript regex filter over scenario names,
//                       applied after --match/--tier (narrow CI slices)
//     --param K=V       spec override applied to every swept cell,
//                       repeatable (e.g. --param slack=4)
//     --seeds N         trials per scenario            (default 3)
//     --base-seed S     root seed                      (default 1)
//     --threads N       worker threads; 0 = hardware   (default 0)
//     --out PATH        write JSON to PATH             (default stdout)
//     --pretty          indent the JSON
//
// Exit status: 0 on success (even if some cells did not reach completion —
// that is a result, not an error), 2 on usage errors, bad input, or a
// failed JSON write.
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <regex>
#include <stdexcept>
#include <string>
#include <vector>

#include "coding/matrix.hpp"
#include "core/session.hpp"
#include "core/sysinfo.hpp"
#include "runner/sweep.hpp"

namespace {

using namespace ncdn;
using namespace ncdn::runner;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s list [PATTERN]\n"
               "       %s list-algorithms | list-adversaries | "
               "list-links | list-contents | list-schedules\n"
               "       %s run NAME [--seed S] [--param K=V]... "
               "[--link SPEC] [--content SPEC] [--trace]\n"
               "       %s run --alg NAME --topo NAME [--seed S] "
               "[--param K=V]... [--link SPEC] [--content SPEC] [--trace]\n"
               "       %s sweep [--match PATTERN]... [--tier NAME] "
               "[--filter REGEX] [--param K=V]... "
               "[--seeds N] [--base-seed S] [--threads N] "
               "[--out PATH] [--pretty]\n",
               argv0, argv0, argv0, argv0, argv0);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  // Digits only: strtoull would otherwise accept "" and wrap "-1" around.
  if (s == nullptr || *s == '\0') return false;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(s, nullptr, 10);
  if (errno == ERANGE) return false;
  out = v;
  return true;
}

int cmd_list(const std::string& pattern) {
  const std::vector<scenario> scens = scenarios_matching(pattern);
  for (const scenario& s : scens) {
    std::printf("%-56s n=%-4zu k=%-4zu d=%-3zu b=%-3zu T=%-4llu %s\n",
                s.name.c_str(), s.prob.n, s.prob.k, s.prob.d, s.prob.b,
                static_cast<unsigned long long>(s.prob.t_stability),
                s.tier.c_str());
  }
  std::fprintf(stderr, "%zu scenario(s)\n", scens.size());
  return 0;
}

// list-algorithms / list-adversaries / list-links / list-contents: one
// line per registered entry, the count on stderr.
template <class Entry>
int cmd_list_entries(const named_registry<Entry>& reg, const char* counted) {
  for (const Entry& e : reg.entries()) {
    std::printf("%-28s %s\n", e.name.c_str(), e.summary.c_str());
  }
  std::fprintf(stderr, "%zu %s\n", reg.entries().size(), counted);
  return 0;
}

int cmd_list_schedules() {
  std::size_t count = 0;
  for (const matrix_axis_info& e : encoder_schedules()) {
    std::printf("sched=%-22s %s\n", e.name, e.summary);
    ++count;
  }
  for (const matrix_axis_info& e : decoder_strategies()) {
    std::printf("dec=%-24s %s\n", e.name, e.summary);
    ++count;
  }
  std::fprintf(stderr, "%zu matrix axis value(s)\n", count);
  return 0;
}

void print_report(const std::string& label, const run_report& rep) {
  const session_metrics& m = rep.metrics;
  std::printf("scenario           %s\n", label.c_str());
  std::printf("algorithm          %s\n", rep.algorithm_name.c_str());
  std::printf("adversary          %s\n", rep.adversary_name.c_str());
  std::printf("seed               %llu\n",
              static_cast<unsigned long long>(rep.seed));
  std::printf("rounds             %llu\n",
              static_cast<unsigned long long>(rep.rounds));
  std::printf("completion_round   %llu\n",
              static_cast<unsigned long long>(rep.completion_round));
  std::printf("observed_complete  %llu\n",
              static_cast<unsigned long long>(m.observed_completion_round));
  std::printf("complete           %s\n", rep.complete ? "true" : "false");
  std::printf("max_message_bits   %zu\n", rep.max_message_bits);
  std::printf("epochs             %zu\n", rep.epochs);
  std::printf("total_messages     %zu\n", m.total_messages);
  std::printf("total_message_bits %zu\n", m.total_message_bits);
  std::printf("rounds_w_traffic   %llu\n",
              static_cast<unsigned long long>(m.rounds_with_traffic));
  std::printf("final_knowledge    min=%zu total=%zu retired=%zu\n",
              m.final_min_knowledge, m.final_total_knowledge,
              m.final_tokens_retired);
  std::printf("elimination_xors   %llu\n",
              static_cast<unsigned long long>(m.total_elimination_xors));
  if (m.decode_delay_active) {
    std::printf("decode_delay       events=%llu p50=%zu p90=%zu max=%zu\n",
                static_cast<unsigned long long>(m.decode_delay_events),
                m.decode_delay_p50, m.decode_delay_p90, m.decode_delay_max);
  }
  if (m.link_active) {
    std::printf("link_copies        sent=%llu delivered=%llu dropped=%llu "
                "in_flight=%zu\n",
                static_cast<unsigned long long>(m.total_messages_sent),
                static_cast<unsigned long long>(m.total_messages_delivered),
                static_cast<unsigned long long>(m.total_messages_dropped),
                m.messages_in_flight);
  }
  if (m.content.active) {
    const content_metrics& cm = m.content;
    std::printf("content            resync=%s epochs=%zu versions=%zu "
                "head=%zu\n",
                cm.resync_full ? "full" : "delta", cm.epochs, cm.versions,
                cm.head_version);
    std::printf("content_epochs     ");
    for (std::size_t e = 0; e < cm.epoch_rounds.size(); ++e) {
      std::printf("%s%lld/%zu", e == 0 ? "" : " ",
                  static_cast<long long>(cm.epoch_rounds[e]),
                  cm.epoch_delta_items[e]);
    }
    std::printf("  (rounds/delta per epoch)\n");
    std::printf("content_wire       wire_bits=%llu full_resync_floor=%llu "
                "backlog=%zu shortcuts=%zu\n",
                static_cast<unsigned long long>(cm.wire_bits),
                static_cast<unsigned long long>(cm.full_resync_floor_bits),
                cm.backlog_items, cm.shortcut_hits);
    std::printf("content_staleness  p50=%zu p90=%zu max=%zu\n",
                cm.staleness_p50, cm.staleness_p90, cm.staleness_max);
  }
  // Process-level footprint, not part of the run record (it depends on the
  // machine, not the seed).
  std::printf("peak_rss_bytes     %zu\n", peak_rss_bytes());
}

int cmd_run(int argc, char** argv) {
  std::string name;  // scenario-name mode when non-empty
  std::string alg;
  std::string topo;
  std::uint64_t seed = 1;
  param_map params;
  std::string link_text;
  std::string content_text;
  bool trace = false;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ncdn-run: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      const char* p = next("--seed");
      if (p == nullptr || !parse_u64(p, seed)) {
        std::fprintf(stderr, "ncdn-run: --seed needs an integer\n");
        return 2;
      }
    } else if (arg == "--alg") {
      const char* p = next("--alg");
      if (p == nullptr) return 2;
      alg = p;
    } else if (arg == "--topo") {
      const char* p = next("--topo");
      if (p == nullptr) return 2;
      topo = p;
    } else if (arg == "--param") {
      const char* p = next("--param");
      if (p == nullptr) return 2;
      const char* eq = std::strchr(p, '=');
      if (eq == nullptr || eq == p) {
        std::fprintf(stderr, "ncdn-run: --param needs KEY=VALUE, got '%s'\n",
                     p);
        return 2;
      }
      params[std::string(p, eq)] = std::string(eq + 1);
    } else if (arg == "--link") {
      const char* p = next("--link");
      if (p == nullptr) return 2;
      link_text = p;
    } else if (arg == "--content") {
      const char* p = next("--content");
      if (p == nullptr) return 2;
      content_text = p;
    } else if (arg == "--trace") {
      trace = true;
    } else if (!arg.empty() && arg[0] != '-' && name.empty()) {
      name = arg;
    } else {
      std::fprintf(stderr, "ncdn-run: unknown run option '%s'\n", arg.c_str());
      return 2;
    }
  }

  problem prob;
  std::string label;
  link_spec link;
  content_spec content;
  if (!name.empty()) {
    if (!alg.empty() || !topo.empty()) {
      std::fprintf(stderr,
                   "ncdn-run: give either a scenario NAME or --alg/--topo, "
                   "not both\n");
      return 2;
    }
    const scenario* s = find_scenario(name);
    if (s == nullptr) {
      std::fprintf(stderr, "ncdn-run: unknown scenario '%s' (try `list`)\n",
                   name.c_str());
      return 2;
    }
    prob = s->prob;
    alg = s->alg;
    topo = s->adv;
    label = s->name;
    // A link or content scenario carries its spec; an explicit --link or
    // --content overrides it.
    link = s->linkspec();
    content = s->contentspec();
  } else {
    if (alg.empty() || topo.empty()) {
      std::fprintf(stderr,
                   "ncdn-run: need a scenario NAME or both --alg and "
                   "--topo (see list-algorithms / list-adversaries)\n");
      return 2;
    }
    // Ad-hoc defaults: the registry's bread-and-butter cell sizing.  Any
    // of these can be reshaped via --param (n=, k=, b=, t_stability=, ...).
    prob.n = 16;
    prob.k = 16;
    prob.d = 8;
    prob.b = 32;
    label = alg + "/" + topo;
  }

  if (!link_text.empty()) link = parse_link_spec(link_text);
  if (!content_text.empty()) content = parse_content_spec(content_text);
  session s(prob, protocol_spec{alg, params}, adversary_spec{topo, params},
            std::move(link), std::move(content), seed);
  if (trace) {
    s.set_observer([](const round_metrics& m) {
      std::printf("round %6llu  know %zu..%zu (sum %zu)  edges %zu  "
                  "msgs %zu  bits %zu  retired %zu",
                  static_cast<unsigned long long>(m.round), m.min_knowledge,
                  m.max_knowledge, m.total_knowledge, m.topology_edges,
                  m.messages, m.message_bits, m.tokens_retired);
      if (m.link_active) {
        std::printf("  sent %zu  dlvd %zu  drop %zu  flight %zu",
                    m.messages_sent, m.messages_delivered, m.messages_dropped,
                    m.messages_in_flight);
      }
      std::printf("%s\n", m.silent ? "  (silent)" : "");
    });
  }
  print_report(label, s.run_to_completion());
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  sweep_options opts;
  std::vector<std::string> patterns;
  std::string tier;
  std::string filter;
  bool have_filter = false;
  std::string out_path;
  bool pretty = false;
  param_map extra_params;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ncdn-run: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    std::uint64_t v = 0;
    if (arg == "--match") {
      const char* p = next("--match");
      if (p == nullptr) return 2;
      patterns.emplace_back(p);
    } else if (arg == "--tier") {
      const char* p = next("--tier");
      if (p == nullptr) return 2;
      tier = p;
      if (tier != "smoke" && tier != "full" && tier != "nightly" &&
          tier != "nightly-xl") {
        std::fprintf(stderr,
                     "ncdn-run: --tier needs smoke, full, nightly, or "
                     "nightly-xl, got '%s'\n", p);
        return 2;
      }
    } else if (arg == "--filter") {
      const char* p = next("--filter");
      if (p == nullptr) return 2;
      filter = p;
      have_filter = true;
    } else if (arg == "--param") {
      const char* p = next("--param");
      if (p == nullptr) return 2;
      const char* eq = std::strchr(p, '=');
      if (eq == nullptr || eq == p) {
        std::fprintf(stderr, "ncdn-run: --param needs KEY=VALUE, got '%s'\n",
                     p);
        return 2;
      }
      extra_params[std::string(p, eq)] = std::string(eq + 1);
    } else if (arg == "--seeds") {
      const char* p = next("--seeds");
      if (p == nullptr) return 2;
      if (!parse_u64(p, v) || v == 0) {
        std::fprintf(stderr, "ncdn-run: --seeds needs a positive integer, "
                             "got '%s'\n", p);
        return 2;
      }
      opts.trials = static_cast<std::size_t>(v);
    } else if (arg == "--base-seed") {
      const char* p = next("--base-seed");
      if (p == nullptr) return 2;
      if (!parse_u64(p, v)) {
        std::fprintf(stderr, "ncdn-run: --base-seed needs an integer, "
                             "got '%s'\n", p);
        return 2;
      }
      opts.base_seed = v;
    } else if (arg == "--threads") {
      const char* p = next("--threads");
      if (p == nullptr) return 2;
      if (!parse_u64(p, v)) {
        std::fprintf(stderr, "ncdn-run: --threads needs an integer, "
                             "got '%s'\n", p);
        return 2;
      }
      opts.threads = static_cast<std::size_t>(v);
    } else if (arg == "--out") {
      const char* p = next("--out");
      if (p == nullptr) return 2;
      out_path = p;
    } else if (arg == "--pretty") {
      pretty = true;
    } else {
      std::fprintf(stderr, "ncdn-run: unknown sweep option '%s'\n",
                   arg.c_str());
      return 2;
    }
  }

  std::vector<scenario> scens;
  if (patterns.empty()) {
    scens = scenarios_matching("");
  } else {
    for (const scenario& s : scenario_registry()) {
      for (const std::string& p : patterns) {
        if (s.name.find(p) != std::string::npos) {
          scens.push_back(s);
          break;
        }
      }
    }
  }
  if (!tier.empty()) {
    std::vector<scenario> kept;
    for (scenario& s : scens) {
      if (s.tier == tier) kept.push_back(std::move(s));
    }
    scens = std::move(kept);
  }
  if (have_filter) {
    try {
      const std::regex re(filter);
      std::vector<scenario> kept;
      for (scenario& s : scens) {
        if (std::regex_search(s.name, re)) kept.push_back(std::move(s));
      }
      scens = std::move(kept);
    } catch (const std::regex_error& err) {
      std::fprintf(stderr, "ncdn-run: bad --filter regex '%s': %s\n",
                   filter.c_str(), err.what());
      return 2;
    }
  }
  if (scens.empty()) {
    std::fprintf(stderr, "ncdn-run: no scenarios matched\n");
    return 2;
  }
  // Uniform overrides: every swept cell gets them, on top of (and
  // overriding) the cell's pinned params, without touching the registry.
  for (scenario& s : scens) {
    for (const auto& [key, value] : extra_params) s.params[key] = value;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const sweep_result result = run_sweep(std::move(scens), opts);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  const json::value doc = sweep_to_json(result);
  const std::string text = pretty ? doc.dump_pretty() : doc.dump() + "\n";

  // A short write, or a flush or close that fails (a full disk), is an
  // error, not a silent success.
  const bool to_stdout = out_path.empty() || out_path == "-";
  bool written = false;
  if (to_stdout) {
    written = std::fwrite(text.data(), 1, text.size(), stdout) == text.size();
    written = std::fflush(stdout) == 0 && std::ferror(stdout) == 0 && written;
  } else if (std::FILE* f = std::fopen(out_path.c_str(), "wb")) {
    written = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    written = std::fclose(f) == 0 && written;
  }
  if (!written) {
    std::fprintf(stderr, "ncdn-run: cannot write '%s'\n",
                 to_stdout ? "stdout" : out_path.c_str());
    return 2;
  }

  std::size_t incomplete = 0;
  for (const cell_result& c : result.cells) {
    if (!c.report.complete) ++incomplete;
  }
  // Timing and footprint go to stderr only; the JSON stays a pure function
  // of the seed.
  std::fprintf(stderr,
               "swept %zu scenario(s) x %zu seed(s) = %zu cell(s) on %zu "
               "thread(s) in %.2fs (%zu incomplete, peak_rss_bytes %zu)\n",
               result.scenarios.size(), result.options.trials,
               result.cells.size(), result.options.threads, secs, incomplete,
               peak_rss_bytes());
  return 0;
}

}  // namespace

// Bad input (unknown names, malformed params, infeasible problems, a
// failing sweep cell, a size too large to allocate) ends in a message and
// exit 2, never an abort.
int main(int argc, char** argv) try {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  if (cmd == "list") {
    return cmd_list(argc >= 3 ? argv[2] : "");
  }
  if (cmd == "list-algorithms") {
    return cmd_list_entries(protocol_registry::instance(), "algorithm(s)");
  }
  if (cmd == "list-adversaries") {
    return cmd_list_entries(adversary_registry::instance(), "adversar(ies)");
  }
  if (cmd == "list-links") {
    return cmd_list_entries(link_registry::instance(), "link model(s)");
  }
  if (cmd == "list-contents") {
    return cmd_list_entries(content_registry::instance(), "content model(s)");
  }
  if (cmd == "list-schedules") {
    return cmd_list_schedules();
  }
  if (cmd == "run") {
    if (argc < 3) return usage(argv[0]);
    return cmd_run(argc - 2, argv + 2);
  }
  if (cmd == "sweep") {
    return cmd_sweep(argc - 2, argv + 2);
  }
  return usage(argv[0]);
} catch (const std::exception& err) {
  std::fprintf(stderr, "%s\n", err.what());
  return 2;
}
