// The versioned-content subsystem: a deterministic epoch schedule that
// mutates the token universe over time, turning the one-shot k-token
// broadcast into the continuous patch-dissemination workload PAPER.md's
// production setting implies (and ROADMAP calls the IFT-style use case).
//
// A `content_spec` mirrors protocol_spec / adversary_spec / link_spec: a
// registry name ("steady", "burst", "rolling") plus key=value params.  The
// name picks the *mutation process*; the schedule it expands into is a patch
// dependency DAG over versions:
//
//   - Versions 0..k-1 are the base items, introduced at epoch 0 and placed
//     by the session's placement (so epoch 0 reproduces the classic k-token
//     dissemination instance byte-for-byte in coding behaviour).
//   - Every later epoch introduces a batch of patches.  A patch names one
//     or two strictly-earlier parents; applying it requires the parent
//     closure (a node may not hold a version whose parents it lacks — the
//     NCDN_AUDIT dependency-closure invariant).
//   - A patch may *supersede* its primary parent: holding the superseding
//     version discharges any dependency on the superseded one, which is how
//     a rejoining churn node shortcuts a catch-up chain instead of fetching
//     every intermediate version.  At most one version supersedes any given
//     version, so supersede chains are paths, not trees.
//
// Per-epoch completion means every live node holds the *dependency closure
// of the head version* (target set); the epoch driver in driver.cpp
// re-seeds a coding backend with only the delta versions still missing
// somewhere, which is what makes diff dissemination beat naive full
// re-dissemination on bytes-on-wire.
//
// Shared params read by every entry:
//
//   resync=MODE    delta (default) | full — full re-disseminates the whole
//                  target closure every epoch (the naive baseline BENCH_E21
//                  compares against)
//
// `ncdn-run run --content "steady,epochs=6,supersede=0.5"` parses the same
// spec from the CLI via parse_content_spec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "linalg/bitvec.hpp"

namespace ncdn {

/// A content-model selection: registry name + overrides.  An empty name
/// means no content workload at all — the engine's historical one-shot
/// dissemination path.
struct content_spec {
  std::string name;
  param_map params;

  bool empty() const noexcept { return name.empty(); }
};

/// One version in the patch DAG.  Base items (epoch 0) have no parents and
/// carry no payload here — their payloads come from the session's normal
/// token placement, exactly like a classic run.
struct content_patch {
  std::size_t version = 0;     // dense id; also the DAG topological order
  std::size_t epoch = 0;       // epoch that introduced it
  node_id author = 0;          // node the patch is born at
  std::vector<std::size_t> parents;  // sorted, strictly earlier versions
  std::size_t supersedes;      // content_schedule::none, or the superseded
                               // version (always the primary parent)
  bitvec payload;              // d bits; empty for base items (the session's
                               // placement supplies those)
};

/// The fully expanded, immutable schedule: every patch, the per-epoch
/// version ranges, and the per-epoch target closures.  Pure data — building
/// it never touches the network or the session, so schedules are shareable
/// across batch cells and trivially byte-deterministic.
class content_schedule {
 public:
  static constexpr std::size_t none = static_cast<std::size_t>(-1);

  content_schedule(std::vector<content_patch> patches,
                   std::vector<std::size_t> epoch_first,
                   std::vector<std::vector<std::size_t>> targets,
                   bool full_resync);

  /// Total versions, base items included.
  std::size_t versions() const noexcept { return patches_.size(); }
  /// Versions introduced at epoch 0 (the classic k).
  std::size_t base_items() const noexcept { return epoch_first_[1]; }
  /// Total epochs, the base epoch included.
  std::size_t epochs() const noexcept { return targets_.size(); }

  const content_patch& patch(std::size_t v) const { return patches_[v]; }
  /// First / one-past-last version introduced at epoch e.
  std::size_t epoch_begin(std::size_t e) const { return epoch_first_[e]; }
  std::size_t epoch_end(std::size_t e) const { return epoch_first_[e + 1]; }
  /// Head version after epoch e's batch lands (the newest version).
  std::size_t head(std::size_t e) const { return epoch_first_[e + 1] - 1; }
  /// Dependency closure of head(e) with supersede shortcuts applied
  /// (sorted ascending).  Completion for epoch e = every live node holds
  /// exactly these versions' payloads.
  const std::vector<std::size_t>& target(std::size_t e) const {
    return targets_[e];
  }
  /// The version superseding v, or `none`.  Unique per v by construction.
  std::size_t superseded_by(std::size_t v) const { return superseded_by_[v]; }
  /// resync=full: re-disseminate the whole target closure every epoch.
  bool full_resync() const noexcept { return full_resync_; }

 private:
  std::vector<content_patch> patches_;
  std::vector<std::size_t> epoch_first_;  // epochs()+1 entries, ascending
  std::vector<std::vector<std::size_t>> targets_;
  std::vector<std::size_t> superseded_by_;
  bool full_resync_ = false;
};

/// The mutation-process knobs a registered family resolves its params into;
/// the shared generator in content.cpp expands them into the DAG.
struct epoch_plan {
  std::size_t epochs = 4;      // update epochs (the base epoch is extra)
  std::vector<std::size_t> batches;  // patches per update epoch
  double supersede = 0.25;     // P(patch supersedes its primary parent)
  std::size_t span = 8;        // primary parent drawn from the newest span
  double second_parent = 0.25; // P(patch names a second, older parent)
};

/// One registered content family.
struct content_entry {
  std::string name;     // e.g. "steady"
  std::string summary;  // one line for `ncdn-run list-contents`
  std::function<epoch_plan(param_reader&)> plan;
};

using content_registry = named_registry<content_entry>;
/// The built-in content families (content.cpp).
void register_builtins(content_registry& reg);

/// Expands a spec into the full schedule for a problem instance.  Throws
/// std::invalid_argument on an unknown name, unknown / malformed params, or
/// a schedule whose per-epoch working set cannot fit the message budget.
/// `spec.empty()` is programmer error — callers skip the workload entirely
/// for the one-shot default.
std::shared_ptr<const content_schedule> build_content_schedule(
    const content_spec& spec, const problem& prob, std::uint64_t seed);

/// Parses the CLI spec string "name,key=value,key=value" (name alone is
/// fine).  Throws std::invalid_argument on malformed input.
content_spec parse_content_spec(const std::string& text);

}  // namespace ncdn
