// Shared helpers for the experiment bench binaries (E1..E15; README, Bench
// binaries).
//
// Each binary prints its experiment's table(s).  Sizes are
// chosen so the full suite runs in a couple of minutes; NCDN_TRIALS and
// NCDN_SCALE scale the statistics and instance sizes up for deeper runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/session.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "runner/json.hpp"

namespace ncdn::bench {

/// Machine-readable mirror of a bench binary's printed tables.
///
/// When the environment variable NCDN_BENCH_JSON is set (and not "0"), the
/// recorder writes BENCH_<id>.json next to the human tables: per-section
/// rows, per-section means of every numeric column, and the run config.
/// NCDN_BENCH_JSON=1 writes to the working directory; any other value is
/// used as the output directory.  When unset the recorder is inert, so
/// instrumented benches cost nothing in the default `printf` mode.
class json_recorder {
 public:
  explicit json_recorder(std::string experiment_id)
      : id_(std::move(experiment_id)) {
    // Recorders are constructed in main() before any worker thread.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("NCDN_BENCH_JSON");
    enabled_ = env != nullptr && *env != '\0' && std::string(env) != "0";
    if (enabled_ && std::string(env) != "1") dir_ = env;
  }

  json_recorder(const json_recorder&) = delete;
  json_recorder& operator=(const json_recorder&) = delete;

  ~json_recorder() { write(); }

  bool enabled() const noexcept { return enabled_; }

  /// Records a run parameter ("trials", "scale", ...).
  void config(const std::string& key, json::value v) {
    if (enabled_) json::put(config_, key, std::move(v));
  }

  /// Appends one row to `section` (sections are created on first use and
  /// keep insertion order; rows are column-name -> cell).
  void row(const std::string& section,
           std::vector<std::pair<std::string, json::value>> cells) {
    if (!enabled_) return;
    section_data* sec = nullptr;
    for (section_data& s : sections_) {
      if (s.name == section) {
        sec = &s;
        break;
      }
    }
    if (sec == nullptr) {
      sections_.push_back({section, {}});
      sec = &sections_.back();
    }
    json::object r;
    for (auto& [k, v] : cells) json::put(r, std::move(k), std::move(v));
    sec->rows.push_back(json::value{std::move(r)});
  }

  /// Writes BENCH_<id>.json (idempotent; also invoked by the destructor).
  void write() {
    if (!enabled_ || written_) return;
    written_ = true;

    json::object root;
    json::put(root, "experiment", id_);
    json::put(root, "config", json::value{config_});

    json::object sections;
    for (const section_data& sec : sections_) {
      json::object s;
      json::put(s, "rows", json::value{sec.rows});
      json::put(s, "means", means_of(sec.rows));
      json::put(sections, sec.name, json::value{std::move(s)});
    }
    json::put(root, "sections", json::value{std::move(sections)});

    const std::string path =
        (dir_.empty() ? std::string{} : dir_ + "/") + "BENCH_" + id_ + ".json";
    const std::string text = json::value{std::move(root)}.dump_pretty();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
  }

 private:
  struct section_data {
    std::string name;
    json::array rows;
  };

  /// Mean of every column that is numeric in all rows holding it.
  static json::value means_of(const json::array& rows) {
    json::object means;
    std::vector<std::string> done;
    for (const json::value& rv : rows) {
      for (const auto& [key, cell] : rv.members()) {
        bool seen = false;
        for (const std::string& d : done) seen = seen || d == key;
        if (seen) continue;
        done.push_back(key);
        double sum = 0.0;
        std::size_t count = 0;
        bool numeric = true;
        for (const json::value& other : rows) {
          const json::value* v = other.find(key);
          if (v == nullptr) continue;
          if (!v->is_number()) {
            numeric = false;
            break;
          }
          sum += v->as_number();
          ++count;
        }
        if (numeric && count > 0) {
          json::put(means, key, sum / static_cast<double>(count));
        }
      }
    }
    return json::value{std::move(means)};
  }

  std::string id_;
  std::string dir_;
  bool enabled_ = false;
  bool written_ = false;
  json::object config_;
  std::vector<section_data> sections_;
};

/// One session run through the registry-driven API; asserts completion.
inline run_report run_cell(const problem& prob, const std::string& alg,
                           const std::string& adv, std::uint64_t seed,
                           const param_map& params = {}) {
  session s(prob, protocol_spec{alg, params}, adversary_spec{adv, params},
            seed);
  run_report rep = s.run_to_completion();
  NCDN_ASSERT(rep.complete);
  return rep;
}

/// Mean rounds for one (problem, spec names) across trials (seeds
/// 1..trials).  Protocols and adversaries are selected by registry name —
/// the same strings `ncdn-run list-algorithms` prints.
inline double mean_rounds(const problem& prob, const std::string& alg,
                          const std::string& adv, std::size_t trials) {
  const summary s = measure_over_seeds(
      [&](std::uint64_t seed) {
        return static_cast<double>(run_cell(prob, alg, adv, seed).rounds);
      },
      trials);
  return s.mean;
}

/// Like mean_rounds but measuring the observer completion round.
inline double mean_completion(const problem& prob, const std::string& alg,
                              const std::string& adv, std::size_t trials) {
  const summary s = measure_over_seeds(
      [&](std::uint64_t seed) {
        return static_cast<double>(
            run_cell(prob, alg, adv, seed).completion_round);
      },
      trials);
  return s.mean;
}

}  // namespace ncdn::bench
