#include "runner/scenario.hpp"

#include <algorithm>

namespace ncdn::runner {

namespace {

// One point on a protocol row's size ladder: the instance size and the
// message budget that makes it feasible (coded families need
// b >= (k + d) / 2 so k+d-bit coded messages fit the O(b) budget).
struct size_spec {
  std::size_t n;
  std::size_t b;
};

// One protocol row of the matrix: a registry protocol, an optional
// bracketed variant label (grid rows), the stability window its engines
// need, the size ladder, and the spec params pinned for every cell.
// `partition_tolerant` rows are additionally crossed with the live-subset
// (churn) adversary axis; the session rejects that pairing for everyone
// else, so the matrix never generates it.
struct matrix_row {
  const char* alg;
  const char* variant;  // "" = canonical row (names stay stable)
  round_t t_stability;
  std::vector<size_spec> sizes;
  param_map params;
  bool partition_tolerant = false;
};

// One adversary-axis cell: a registry adversary plus an optional variant
// label and its pinned params.
struct adv_cell {
  const char* name;
  const char* variant;  // "" = bare family name
  param_map params;
};

std::string spec_segment(const char* name, const char* variant) {
  std::string s = name;
  if (variant[0] != '\0') s += std::string("[") + variant + "]";
  return s;
}

param_map merged(const param_map& base, const param_map& extra) {
  param_map out = base;
  for (const auto& [key, value] : extra) {
    NCDN_ASSERT(out.count(key) == 0);  // pinned axes must stay disjoint
    out[key] = value;
  }
  return out;
}

// One cell, named "alg[variant]/adv[variant]/<axes>/n<n>" (an empty
// `axes` adds no segment), with the adversary's pinned params merged into
// the protocol's and the default problem: k = n, d = 8, one token per
// node, T = 1.  Callers override the rest (t_stability, k and placement,
// the link or content spec).  Both names must resolve through the
// registries; a typo'd name fails here, at registry build time, not
// mid-sweep.
scenario make_cell(const char* alg, const char* alg_variant,
                   const param_map& params, const adv_cell& adv,
                   const std::string& axes, std::size_t n, std::size_t b) {
  NCDN_ASSERT(protocol_registry::instance().find(alg) != nullptr);
  NCDN_ASSERT(adversary_registry::instance().find(adv.name) != nullptr);
  scenario s;
  s.alg = alg;
  s.adv = adv.name;
  s.params = merged(params, adv.params);
  s.prob.n = n;
  s.prob.k = n;
  s.prob.d = 8;
  s.prob.b = b;
  s.prob.t_stability = 1;
  s.prob.place = placement::one_per_node;
  s.tier = tier_for(n);
  s.name = spec_segment(alg, alg_variant) + "/" +
           spec_segment(adv.name, adv.variant) + "/" +
           (axes.empty() ? "" : axes + "/") + "n" + std::to_string(n);
  return s;
}

std::vector<scenario> build_registry() {
  // The adversary axis.  The first block is the full-connectivity
  // families (every protocol crosses them); the churn block only pairs
  // with partition-tolerant rows.  Variant params are pinned here so the
  // cells stay stable if a registry default ever moves.
  const std::vector<adv_cell> full_axis = {
      {"static-path", "", {}},
      {"static-star", "", {}},
      {"static-clique", "", {}},
      {"permuted-path", "", {}},
      {"random-connected", "", {}},
      {"random-geometric", "", {}},
      {"sorted-path", "", {}},
      {"t-interval", "", {}},
      {"t-interval-random", "", {{"t", "4"}}},
      {"t-interval-random", "T=16", {{"t", "16"}}},
      {"edge-markov", "", {{"p_on", "0.15"}, {"p_off", "0.3"}}},
      {"edge-markov", "sticky", {{"p_on", "0.05"}, {"p_off", "0.05"}}},
      {"adaptive-min-cut", "", {}},
      // The modifier layer exercised end-to-end: edge-markov dynamics over
      // a geometric (ad-hoc mesh) base.
      {"compose", "markov-geo", {{"modifier", "edge-markov"},
                                 {"base", "random-geometric"}}},
  };
  const std::vector<adv_cell> churn_axis = {
      {"churn", "", {{"rate", "0.1"}, {"max_down", "4"}}},
      {"churn", "heavy", {{"rate", "0.25"}, {"max_down", "4"}}},
      {"compose", "churn-geo", {{"modifier", "churn"},
                                {"base", "random-geometric"},
                                {"rate", "0.1"},
                                {"max_down", "4"}}},
  };

  // The protocol rows.  d = 8 everywhere; b per size point.  Canonical
  // rows (empty variant) keep the historical names; grid rows append a
  // bracketed label so they are purely additive.
  const std::vector<matrix_row> rows = {
      {"token-forwarding", "", 1, {{16, 16}, {32, 16}, {64, 16}}, {}},
      {"token-forwarding-pipelined", "", 1, {{16, 16}}, {}},
      {"naive-indexed", "", 1, {{16, 32}, {32, 32}, {64, 48}}, {}},
      {"greedy-forward", "", 1, {{16, 32}, {32, 32}}, {}},
      {"priority-forward/flooding", "", 1, {{16, 32}}, {}},
      {"priority-forward/charged", "", 1, {{16, 32}}, {}},
      {"rlnc-direct", "", 1, {{16, 32}, {32, 32}, {64, 48}, {128, 80}},
       {}, true},
      // Coding-backend cells (PR3): the density/delay frontier the sparse
      // and generation backends trade along, plus grid points opening the
      // sparser / larger-generation corners.
      {"rlnc-sparse", "", 1, {{16, 32}, {32, 32}}, {{"rho", "0.2"}}, true},
      {"rlnc-sparse", "rho=0.05", 1, {{32, 32}}, {{"rho", "0.05"}}, true},
      {"rlnc-gen", "", 1, {{16, 32}, {32, 32}},
       {{"gen_size", "8"}, {"band_overlap", "2"}}, true},
      {"rlnc-gen", "g=16", 1, {{64, 48}},
       {{"gen_size", "16"}, {"band_overlap", "4"}}, true},
      {"centralized-rlnc", "", 1, {{16, 32}, {32, 32}}, {}, true},
      {"tstable/auto", "", 4, {{16, 32}}, {}},
      // Patching needs a window long enough to build patches and run full
      // broadcast cycles inside it (§8); T = 256 at n = 32, b = 16 is the
      // sizing the patch tests prove feasible.
      {"tstable/patch", "", 256, {{32, 16}}, {}},
      {"tstable/patch-gather", "", 256, {{32, 16}}, {}},
      {"tstable/chunked", "", 4, {{16, 32}}, {}},
      {"tstable/plain", "", 4, {{16, 32}}, {}},
  };

  std::vector<scenario> out;
  for (const matrix_row& row : rows) {
    for (const size_spec& size : row.sizes) {
      auto emit = [&](const adv_cell& adv) {
        scenario s = make_cell(row.alg, row.variant, row.params, adv, "",
                               size.n, size.b);
        s.prob.t_stability = row.t_stability;
        out.push_back(std::move(s));
      };
      for (const adv_cell& adv : full_axis) emit(adv);
      if (row.partition_tolerant) {
        for (const adv_cell& adv : churn_axis) emit(adv);
      }
    }
  }

  // Lossy-realism cells (PR7): the link-model axis (src/linkmodel) crossed
  // with the loss-tolerant protocols.  Names insert a "link:" segment so
  // sweeps and CI can select (or exclude) the whole axis with one
  // substring; the reliable matrix above never carries that segment.
  struct link_cell {
    const char* name;
    const char* variant;  // "" = registry defaults
    param_map params;
    const char* adv = "permuted-path";
  };
  // Eight channel variants: iid loss light/heavy, bursty loss, fixed and
  // uniform latency, loss+latency combined, and the two contended media
  // (an ALOHA-style tx_prob keeps all-transmit protocols from deadlocking
  // under half-duplex / collisions).  The broadcast cell runs on a clique
  // so collisions actually contend.
  const std::vector<link_cell> link_axis = {
      {"bernoulli", "p=0.1", {{"p", "0.1"}}},
      {"bernoulli", "p=0.3", {{"p", "0.3"}}},
      {"gilbert-elliott", "",
       {{"p_good_bad", "0.1"},
        {"p_bad_good", "0.3"},
        {"loss_good", "0.02"},
        {"loss_bad", "0.6"}}},
      {"perfect", "delay=2", {{"delay", "2"}}},
      {"perfect", "delay_max=3", {{"delay_max", "3"}}},
      {"bernoulli", "p=0.1,delay_max=2", {{"p", "0.1"}, {"delay_max", "2"}}},
      {"perfect", "half-duplex",
       {{"medium", "half-duplex"}, {"tx_prob", "0.7"}}},
      {"perfect", "broadcast",
       {{"medium", "broadcast"}, {"tx_prob", "0.3"}},
       "static-clique"},
  };
  // The loss-tolerant protocol rows the axis crosses (params mirror the
  // reliable rows so the only difference is the channel), plus the
  // recoding-buffer grid points and two full-tier n32 cells.
  struct link_row {
    const char* alg;
    const char* variant;
    param_map params;
    std::size_t n;
    std::size_t b;
    std::size_t links = ~std::size_t{0};  // bitmask into link_axis
  };
  const std::vector<link_row> link_rows = {
      {"rlnc-direct", "", {}, 16, 32},
      {"rlnc-sparse", "", {{"rho", "0.2"}}, 16, 32},
      {"token-forwarding-pipelined", "", {}, 16, 16},
      // Recoding-buffer node mode under iid loss: bounded FIFO, both
      // eviction policies, and the generation backend recoding narrow.
      {"rlnc-direct", "buf=8", {{"buf", "8"}, {"evict", "oldest"}}, 16, 32,
       0x1},
      {"rlnc-direct", "buf=8,evict=newest",
       {{"buf", "8"}, {"evict", "newest"}}, 16, 32, 0x1},
      {"rlnc-gen", "buf=8",
       {{"gen_size", "8"}, {"band_overlap", "2"}, {"buf", "8"},
        {"evict", "oldest"}},
       16, 32, 0x1},
      // Full-tier spot checks at n32.
      {"rlnc-direct", "", {}, 32, 32, 0x1 | 0x4},
  };
  // Scale cells (PR8): the nightly-xl tier exercises the representation
  // stack — delta topologies, arena rows — at n = 4096.  The
  // spread placement keeps k at 64 (one-per-node would make the coded rows
  // n bits wide), and the adversaries are the sparse small-diameter
  // families, so each cell completes in O(k + diameter) rounds instead of
  // O(n) and the tier fits a wall-clock budget.
  struct xl_row {
    const char* alg;
    param_map params;
  };
  const std::vector<xl_row> xl_rows = {
      {"rlnc-direct", {}},
      {"rlnc-gen", {{"gen_size", "16"}, {"band_overlap", "4"}}},
      {"token-forwarding-pipelined", {}},
  };
  const std::vector<adv_cell> xl_axis = {
      {"random-connected", "", {}},
      {"t-interval-random", "", {{"t", "4"}}},
  };
  for (const xl_row& row : xl_rows) {
    for (const adv_cell& adv : xl_axis) {
      scenario s = make_cell(row.alg, "", row.params, adv, "", 4096, 64);
      s.prob.k = 64;
      s.prob.place = placement::random_spread;
      out.push_back(std::move(s));
    }
  }

  for (const link_row& row : link_rows) {
    for (std::size_t li = 0; li < link_axis.size(); ++li) {
      if ((row.links & (std::size_t{1} << li)) == 0) continue;
      const link_cell& lc = link_axis[li];
      scenario s = make_cell(row.alg, row.variant, row.params,
                             {lc.adv, "", {}},
                             "link:" + spec_segment(lc.name, lc.variant),
                             row.n, row.b);
      s.link = lc.name;
      s.link_params = lc.params;
      out.push_back(std::move(s));
    }
  }

  // Versioned-content cells (PR9): the content axis (src/content) crossed
  // with the coded-broadcast rows that can drive it.  Names insert a
  // "content:" segment, mirroring the link axis, so sweeps and CI select
  // or exclude the multi-epoch workload with one substring.
  struct content_cell {
    const char* name;
    const char* variant;  // "" = registry defaults
    param_map params;
  };
  // Five workload variants: the uniform patch flow, a supersede-heavy
  // grid point, the resync=full naive baseline (what BENCH_E21 beats),
  // the release-burst cadence, and the pure supersede chain that
  // exercises the rejoin shortcut.
  const std::vector<content_cell> content_axis = {
      {"steady", "", {}},
      {"steady", "supersede=0.6", {{"supersede", "0.6"}}},
      {"steady", "full", {{"resync", "full"}}},
      {"burst", "", {}},
      {"rolling", "", {}},
  };
  struct content_row {
    const char* alg;
    param_map params;
    adv_cell adv;
    std::size_t n;
    std::size_t b;
    std::size_t contents = ~std::size_t{0};  // bitmask into content_axis
  };
  const adv_cell permuted_path{"permuted-path", "", {}};
  const adv_cell churn{"churn", "", {{"rate", "0.1"}, {"max_down", "4"}}};
  const std::vector<content_row> content_rows = {
      {"rlnc-direct", {}, permuted_path, 16, 32},
      // Under churn, rejoining nodes must catch up through the backlog or
      // a supersede shortcut — the workload's reason to exist.
      {"rlnc-direct", {}, churn, 16, 32},
      {"rlnc-sparse", {{"rho", "0.2"}}, permuted_path, 16, 32},
      {"rlnc-gen", {{"gen_size", "8"}, {"band_overlap", "2"}},
       permuted_path, 16, 32},
      // Full-tier spot checks at n32 (steady only).
      {"rlnc-direct", {}, permuted_path, 32, 48, 0x1},
      {"rlnc-direct", {}, churn, 32, 48, 0x1},
  };
  for (const content_row& row : content_rows) {
    for (std::size_t ci = 0; ci < content_axis.size(); ++ci) {
      if ((row.contents & (std::size_t{1} << ci)) == 0) continue;
      const content_cell& cc = content_axis[ci];
      scenario s = make_cell(row.alg, "", row.params, row.adv,
                             "content:" + spec_segment(cc.name, cc.variant),
                             row.n, row.b);
      s.content = cc.name;
      s.content_params = cc.params;
      out.push_back(std::move(s));
    }
  }

  // Encoder-schedule x decoder-strategy cells (PR10): the coding/matrix
  // axes behind the rlnc-* sched=/dec= params.  Names insert a "sched:" or
  // "dec:" segment (mirroring link:/content:) so sweeps and CI select or
  // exclude the matrix with one substring; the default-cell matrix above
  // never carries either segment.  The grid opens the corners the paper's
  // dense baseline cannot reach: a systematic first pass under lossy
  // links (uncoded tokens decode on arrival), feedback-steered generation
  // picks under churn (rank deficits ride the rows), and the banded
  // eliminator against its generic grouped baseline at n64 generation
  // coding.
  struct sched_cell {
    const char* alg;
    const char* alg_variant;
    param_map params;      // includes the sched=/dec= spelling
    const char* seg;       // name segment, e.g. "sched:systematic"
    adv_cell adv;
    std::size_t n;
    std::size_t b;
    const char* link = "";           // optional channel under the cell
    const char* link_variant = "";
    param_map link_params = {};
  };
  const param_map gen8{{"gen_size", "8"}, {"band_overlap", "2"}};
  const param_map gen16{{"gen_size", "16"}, {"band_overlap", "4"}};
  const std::vector<sched_cell> sched_cells = {
      // Systematic first pass: every token rides uncoded once before the
      // sender switches to dense rows — early decode-delay mass, same
      // completion guarantee.
      {"rlnc-direct", "", {{"sched", "systematic"}}, "sched:systematic",
       permuted_path, 16, 32},
      {"rlnc-direct", "", {{"sched", "systematic"}}, "sched:systematic",
       {"static-star", "", {}}, 16, 32},
      {"rlnc-direct", "", {{"sched", "systematic"}}, "sched:systematic",
       {"adaptive-min-cut", "", {}}, 16, 32},
      // ... crossed with iid loss: lost uncoded tokens are covered by the
      // coded tail, and the delay histogram shows the cost.
      {"rlnc-direct", "", {{"sched", "systematic"}}, "sched:systematic",
       permuted_path, 16, 32, "bernoulli", "p=0.1",
       {{"p", "0.1"}}},
      {"rlnc-direct", "", {{"sched", "systematic"}}, "sched:systematic",
       permuted_path, 16, 32, "bernoulli", "p=0.3",
       {{"p", "0.3"}}},
      {"rlnc-gen", "", merged(gen8, {{"sched", "systematic"}}),
       "sched:systematic", permuted_path, 16, 32},
      // Feedback-steered generation picks: receivers' piggybacked rank
      // deficits steer the sender's draws toward starved generations.
      {"rlnc-gen", "", merged(gen8, {{"sched", "feedback"}}),
       "sched:feedback", permuted_path, 16, 32},
      {"rlnc-gen", "", merged(gen8, {{"sched", "feedback"}}),
       "sched:feedback", {"t-interval-random", "", {{"t", "4"}}}, 16, 32},
      {"rlnc-gen", "", merged(gen8, {{"sched", "feedback"}}),
       "sched:feedback", churn, 16, 32},
      {"rlnc-gen", "", merged(gen8, {{"sched", "feedback"}}),
       "sched:feedback",
       {"churn", "heavy", {{"rate", "0.25"}, {"max_down", "4"}}}, 16, 32},
      {"rlnc-gen", "", merged(gen8, {{"sched", "feedback"}}),
       "sched:feedback", permuted_path, 32, 32},
      // Generic grouped rref as the banded eliminator's baseline: same
      // draws, same wire bytes, full-width elimination XORs.
      {"rlnc-gen", "", merged(gen8, {{"dec", "rref"}}), "dec:rref",
       permuted_path, 16, 32},
      {"rlnc-gen", "g=16,w=4", merged(gen16, {{"dec", "rref"}}), "dec:rref",
       permuted_path, 64, 48},
      {"rlnc-gen", "g=16,w=4", merged(gen16, {{"dec", "banded"}}),
       "dec:banded", permuted_path, 64, 48},
      {"rlnc-gen", "g=16,w=4", merged(gen16, {{"dec", "banded"}}),
       "dec:banded", {"random-connected", "", {}}, 64, 48},
      // The sparse schedule spelled through the matrix surface on the
      // dense entry (the rlnc-sparse default cell, reached the new way).
      {"rlnc-direct", "", {{"sched", "sparse"}, {"rho", "0.1"}},
       "sched:sparse[rho=0.1]", permuted_path, 16, 32},
      {"rlnc-direct", "", {{"sched", "systematic"}, {"dec", "rref"}},
       "sched:systematic/dec:rref", {"sorted-path", "", {}}, 16, 32},
  };
  for (const sched_cell& c : sched_cells) {
    std::string axes = c.seg;
    if (c.link[0] != '\0') {
      axes += "/link:" + spec_segment(c.link, c.link_variant);
    }
    scenario s =
        make_cell(c.alg, c.alg_variant, c.params, c.adv, axes, c.n, c.b);
    s.link = c.link;
    s.link_params = c.link_params;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

std::string tier_for(std::size_t n) {
  if (n <= 16) return "smoke";
  if (n <= 32) return "full";
  if (n <= 128) return "nightly";
  return "nightly-xl";
}

const std::vector<scenario>& scenario_registry() {
  static const std::vector<scenario> registry = build_registry();
  return registry;
}

const scenario* find_scenario(const std::string& name) {
  for (const scenario& s : scenario_registry()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<scenario> scenarios_matching(const std::string& pattern) {
  std::vector<scenario> out;
  for (const scenario& s : scenario_registry()) {
    if (pattern.empty() || s.name.find(pattern) != std::string::npos) {
      out.push_back(s);
    }
  }
  return out;
}

std::vector<scenario> scenarios_in_tier(const std::string& tier) {
  std::vector<scenario> out;
  for (const scenario& s : scenario_registry()) {
    if (s.tier == tier) out.push_back(s);
  }
  return out;
}

std::size_t distinct_algorithms(const std::vector<scenario>& s) {
  std::vector<std::string> seen;
  for (const scenario& sc : s) {
    if (std::find(seen.begin(), seen.end(), sc.alg) == seen.end()) {
      seen.push_back(sc.alg);
    }
  }
  return seen.size();
}

std::size_t distinct_adversaries(const std::vector<scenario>& s) {
  std::vector<std::string> seen;
  for (const scenario& sc : s) {
    if (std::find(seen.begin(), seen.end(), sc.adv) == seen.end()) {
      seen.push_back(sc.adv);
    }
  }
  return seen.size();
}

}  // namespace ncdn::runner
