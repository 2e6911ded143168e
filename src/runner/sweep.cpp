// ncdn-lint: allow-file(float-metrics): round counts are cast to double
// only to feed summarize() (exact below 2^53) and the deterministic JSON
// number formatter; no float arithmetic happens here.
#include "runner/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "core/bits.hpp"
#include "core/rng.hpp"
#include "core/session.hpp"
#include "core/stats.hpp"

namespace ncdn::runner {

std::uint64_t cell_seed(std::uint64_t base_seed,
                        const std::string& scenario_name, std::size_t trial) {
  std::uint64_t state = (base_seed ^
                         fnv1a(scenario_name.data(), scenario_name.size())) +
                        0x9e3779b97f4a7c15ULL *
                            static_cast<std::uint64_t>(trial);
  std::uint64_t seed = splitmix64(state);
  // The session derives sub-seeds multiplicatively, so steer clear of the
  // one degenerate value.
  return seed == 0 ? 1 : seed;
}

sweep_result run_sweep(std::vector<scenario> scenarios,
                       const sweep_options& opts) {
  sweep_result result;
  result.scenarios = std::move(scenarios);
  result.options = opts;
  if (result.options.threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    result.options.threads = hw == 0 ? 2 : hw;
  }

  const std::size_t trials = result.options.trials;
  // The cell count must not wrap: a wrapped product would size `cells`
  // smaller than the loops below index it.
  if (trials != 0 &&
      result.scenarios.size() > result.cells.max_size() / trials) {
    throw std::invalid_argument(
        "ncdn: sweep of " + std::to_string(result.scenarios.size()) +
        " scenarios x " + std::to_string(trials) +
        " seeds exceeds the cell limit");
  }
  result.cells.resize(result.scenarios.size() * trials);
  // More workers than cells only burns thread spawns (and can make
  // std::thread throw under a thread ulimit); clamp to the work available.
  result.options.threads = std::min(
      result.options.threads, std::max<std::size_t>(1, result.cells.size()));
  for (std::size_t si = 0; si < result.scenarios.size(); ++si) {
    for (std::size_t t = 0; t < trials; ++t) {
      cell_result& cell = result.cells[si * trials + t];
      cell.scenario_index = si;
      cell.trial = t;
      cell.seed =
          cell_seed(result.options.base_seed, result.scenarios[si].name, t);
    }
  }

  // A malformed scenario (unknown spec name, bad param, infeasible
  // problem) throws std::invalid_argument from the session ctor, and a
  // machine that throws mid-run fails its cell the same way.  Workers
  // must not let that escape (an exception leaving a std::thread is
  // std::terminate); capture per-cell and rethrow deterministically —
  // lowest cell index wins regardless of scheduling.
  std::vector<std::string> cell_errors(result.cells.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= result.cells.size()) return;
      cell_result& cell = result.cells[i];
      const scenario& scen = result.scenarios[cell.scenario_index];
      try {
        session s(scen.prob, scen.protocol(), scen.adversary(),
                  scen.linkspec(), scen.contentspec(), cell.seed);
        cell.report = s.run_to_completion();
      } catch (const std::exception& err) {
        cell_errors[i] = err.what();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(result.options.threads);
  for (std::size_t w = 0; w < result.options.threads; ++w) {
    pool.emplace_back(worker);
  }
  for (std::thread& th : pool) th.join();
  for (std::size_t i = 0; i < cell_errors.size(); ++i) {
    if (!cell_errors[i].empty()) {
      throw std::invalid_argument(
          "ncdn: sweep cell '" +
          result.scenarios[result.cells[i].scenario_index].name + "' trial " +
          std::to_string(result.cells[i].trial) + ": " + cell_errors[i]);
    }
  }
  return result;
}

json::value sweep_to_json(const sweep_result& result) {
  json::object root;
  json::put(root, "tool", "ncdn-run");
  // v2: cells grew the session-observed metrics block (observer-measured
  // completion, traffic totals, final knowledge) and algorithm/adversary
  // became registry spec names.
  json::put(root, "format_version", std::uint64_t{2});

  json::object config;
  json::put(config, "trials", result.options.trials);
  // Seeds are 64-bit identifiers, not quantities: as JSON numbers they
  // would pass through double and lose low bits above 2^53, so they are
  // emitted as digit strings, pasteable straight into `ncdn-run run --seed`.
  json::put(config, "base_seed", std::to_string(result.options.base_seed));
  json::put(config, "scenario_count", result.scenarios.size());
  // Worker count is deliberately omitted: output is a pure function of
  // (scenarios, trials, base_seed), independent of parallelism.
  json::put(root, "config", json::value{std::move(config)});

  json::array cells;
  cells.reserve(result.cells.size());
  for (const cell_result& cell : result.cells) {
    const scenario& scen = result.scenarios[cell.scenario_index];
    // Sized for every optional key at once: a tree of a thousand cells
    // would otherwise keep each object's doubling slack until the dump.
    json::object c;
    c.reserve(20);
    json::put(c, "scenario", scen.name);
    json::put(c, "algorithm", scen.alg);
    json::put(c, "adversary", scen.adv);
    // v2 addendum (PR7): the channel spec, present only on link cells so
    // the reliable matrix's bytes are untouched.
    if (!scen.link.empty()) {
      json::put(c, "link", format_spec(scen.link, scen.link_params));
    }
    // v2 addendum (PR9): the content spec, present only on versioned-
    // content cells so every earlier matrix's bytes are untouched.
    if (!scen.content.empty()) {
      json::put(c, "content", format_spec(scen.content, scen.content_params));
    }
    // v2 addendum (PR5): the CI tier the cell belongs to ("smoke" gates
    // PRs, "full"/"nightly" run on the schedule).
    json::put(c, "tier", scen.tier);
    json::put(c, "n", scen.prob.n);
    json::put(c, "k", scen.prob.k);
    json::put(c, "d", scen.prob.d);
    json::put(c, "b", scen.prob.b);
    json::put(c, "t_stability", std::uint64_t{scen.prob.t_stability});
    json::put(c, "trial", cell.trial);
    json::put(c, "seed", std::to_string(cell.seed));
    json::put(c, "rounds", std::uint64_t{cell.report.rounds});
    json::put(c, "completion_round",
              std::uint64_t{cell.report.completion_round});
    json::put(c, "complete", cell.report.complete);
    json::put(c, "early_stop", cell.report.early_stop);
    json::put(c, "max_message_bits", cell.report.max_message_bits);
    json::put(c, "epochs", cell.report.epochs);
    // v2: the session's per-round observer aggregates.
    const session_metrics& m = cell.report.metrics;
    json::object mo;
    mo.reserve(16);
    if (cell.report.complete) {
      json::put(mo, "observed_completion_round",
                std::uint64_t{m.observed_completion_round});
    } else {
      // v2 addendum (PR7): a cell that capped out before dissemination
      // finished says so explicitly — a -1 sentinel instead of the
      // ambiguous 0, plus how far knowledge got (1.0 = everyone knows
      // everything).
      json::put(mo, "observed_completion_round", -1);
      const double denom =
          static_cast<double>(scen.prob.n) * static_cast<double>(scen.prob.k);
      json::put(mo, "completion_rate",
                denom > 0.0
                    ? static_cast<double>(m.final_total_knowledge) / denom
                    : 0.0);
    }
    json::put(mo, "rounds_with_traffic", std::uint64_t{m.rounds_with_traffic});
    json::put(mo, "total_messages", m.total_messages);
    json::put(mo, "total_message_bits", m.total_message_bits);
    json::put(mo, "peak_round_bits", m.peak_round_bits);
    json::put(mo, "final_min_knowledge", m.final_min_knowledge);
    json::put(mo, "final_total_knowledge", m.final_total_knowledge);
    json::put(mo, "final_tokens_retired", m.final_tokens_retired);
    // v2 addendum (PR3): decode cost, for the rounds-vs-XORs frontier.
    json::put(mo, "elimination_xors", m.total_elimination_xors);
    // v3 addendum (PR10): decode-delay distribution over (node, token)
    // pairs, present only for coded runs (sessions exposing a decode-delay
    // histogram).  Keys are additive — token-forwarding cells are
    // byte-identical to v2 output.
    if (m.decode_delay_active) {
      json::put(mo, "decode_delay_events", m.decode_delay_events);
      json::put(mo, "decode_delay_p50", m.decode_delay_p50);
      json::put(mo, "decode_delay_p90", m.decode_delay_p90);
      json::put(mo, "decode_delay_max", m.decode_delay_max);
    }
    // v2 addendum (PR7): channel accounting, present only when a link
    // model ran.  Counts are directed copies; the latency histogram
    // buckets deliveries by rounds spent in flight (index 0 = same-round).
    if (m.link_active) {
      json::object lm;
      json::put(lm, "messages_sent", m.total_messages_sent);
      json::put(lm, "messages_delivered", m.total_messages_delivered);
      json::put(lm, "messages_dropped", m.total_messages_dropped);
      json::put(lm, "messages_in_flight", m.messages_in_flight);
      json::array lat;
      lat.reserve(m.delivery_latency.size());
      for (std::size_t bucket : m.delivery_latency) {
        lat.push_back(json::value{bucket});
      }
      json::put(lm, "delivery_latency", json::value{std::move(lat)});
      json::put(mo, "link", json::value{std::move(lm)});
    }
    // v2 addendum (PR9): versioned-content accounting, present only when
    // the epoch driver ran.  wire_bits vs full_resync_floor_bits is the
    // diff-vs-naive-re-dissemination comparison; epoch_rounds carries -1
    // for an epoch that capped out before its closure completed.
    if (m.content.active) {
      const content_metrics& cm = m.content;
      json::object co;
      json::put(co, "resync", cm.resync_full ? "full" : "delta");
      json::put(co, "epochs", cm.epochs);
      json::put(co, "versions", cm.versions);
      json::put(co, "head_version", cm.head_version);
      json::array er;
      er.reserve(cm.epoch_rounds.size());
      for (std::int64_t r : cm.epoch_rounds) {
        er.push_back(json::value{r});
      }
      json::put(co, "epoch_rounds", json::value{std::move(er)});
      json::array ed;
      ed.reserve(cm.epoch_delta_items.size());
      for (std::size_t items : cm.epoch_delta_items) {
        ed.push_back(json::value{items});
      }
      json::put(co, "epoch_delta_items", json::value{std::move(ed)});
      json::array et;
      et.reserve(cm.epoch_target_items.size());
      for (std::size_t items : cm.epoch_target_items) {
        et.push_back(json::value{items});
      }
      json::put(co, "epoch_target_items", json::value{std::move(et)});
      json::put(co, "wire_bits", cm.wire_bits);
      json::put(co, "full_resync_floor_bits", cm.full_resync_floor_bits);
      json::put(co, "backlog_items", cm.backlog_items);
      json::put(co, "shortcut_hits", cm.shortcut_hits);
      json::put(co, "staleness_p50", cm.staleness_p50);
      json::put(co, "staleness_p90", cm.staleness_p90);
      json::put(co, "staleness_max", cm.staleness_max);
      json::put(mo, "content", json::value{std::move(co)});
    }
    json::put(c, "metrics", json::value{std::move(mo)});
    cells.push_back(json::value{std::move(c)});
  }
  json::put(root, "cells", json::value{std::move(cells)});

  json::array summaries;
  const std::size_t trials = result.options.trials;
  for (std::size_t si = 0; si < result.scenarios.size(); ++si) {
    std::vector<double> rounds;
    rounds.reserve(trials);
    bool all_complete = true;
    double rate_sum = 0.0;
    const problem& prob = result.scenarios[si].prob;
    const double denom =
        static_cast<double>(prob.n) * static_cast<double>(prob.k);
    for (std::size_t t = 0; t < trials; ++t) {
      const cell_result& cell = result.cells[si * trials + t];
      rounds.push_back(static_cast<double>(cell.report.rounds));
      all_complete = all_complete && cell.report.complete;
      rate_sum +=
          cell.report.complete || denom <= 0.0
              ? 1.0
              : static_cast<double>(cell.report.metrics.final_total_knowledge) /
                    denom;
    }
    const summary s = summarize(std::move(rounds));
    json::object row;
    json::put(row, "scenario", result.scenarios[si].name);
    json::put(row, "trials", trials);
    json::put(row, "all_complete", all_complete);
    // v2 addendum (PR7): mean progress over trials, only for scenarios
    // with a capped-out trial (complete trials count 1.0).
    if (!all_complete) {
      json::put(row, "completion_rate",
                rate_sum / static_cast<double>(trials));
    }
    json::object r;
    json::put(r, "mean", s.mean);
    json::put(r, "median", s.median);
    json::put(r, "min", s.min);
    json::put(r, "max", s.max);
    json::put(row, "rounds", json::value{std::move(r)});
    summaries.push_back(json::value{std::move(row)});
  }
  json::put(root, "scenarios", json::value{std::move(summaries)});

  return json::value{std::move(root)};
}

}  // namespace ncdn::runner
