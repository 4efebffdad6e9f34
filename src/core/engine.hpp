// ForceEngine: the backend abstraction of the simulation core.
//
// Three implementations reproduce the paper's design space:
//   * HostDirectEngine — O(N^2) direct summation in double on the host;
//   * TreeEngine       — Barnes-Hut (original per-particle walk, or
//                        Barnes' modified grouped walk) with each list
//                        evaluated on the host or, the paper's system, on
//                        the emulated GRAPE-5;
//   * GrapeDirectEngine— O(N^2) with the force loop on emulated GRAPE-5.
//
// Every engine fills acc() and pot() of the ParticleSet (G = 1 units;
// potential excludes the self term) and keeps per-phase wall-clock and
// work statistics for the benches.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "grape/config.hpp"
#include "model/particles.hpp"
#include "tree/walk.hpp"

namespace g5::grape {
class Grape5Device;
}

namespace g5::core {

/// Knobs shared by the engines (subset used depends on the backend).
struct ForceParams {
  double eps = 0.01;          ///< Plummer softening
  double theta = 0.75;        ///< tree opening angle
  std::uint32_t n_crit = 256; ///< group size bound (modified algorithm)
  std::uint32_t leaf_max = 8; ///< tree leaf capacity
  tree::Mac mac = tree::Mac::Edge;  ///< acceptance criterion variant
  /// Quadrupole moments for accepted cells. Host tree engines only — the
  /// GRAPE pipelines evaluate point masses, which is exactly the ablation:
  /// host accuracy per list entry vs hardware throughput.
  bool quadrupole = false;
  /// Host worker threads (pool lanes) for the tree build and for the
  /// walk + evaluate phase; the lanes of a GRAPE engine share the
  /// device's read-only Pipeline. 0 = auto: the G5_THREADS environment
  /// variable, else hardware concurrency. Results are bitwise-identical
  /// for any thread count.
  std::uint32_t threads = 0;
  /// GRAPE engines: arithmetic backend of the emulated pipelines.
  /// BitExact (default) is the bit-level GRAPE-5 datapath every golden
  /// number refers to; Native evaluates the same interaction lists in
  /// plain double (codec error ~ 0, roughly 10x faster emulation).
  /// Ignored when the caller hands make_engine a pre-built device.
  grape::BackendKind backend = grape::BackendKind::BitExact;
  /// GRAPE engines: processor boards in the emulated machine. 0 keeps
  /// the paper's configuration (2 boards); any B >= 1 scales the
  /// emulated cluster (j-particles block-shard across boards —
  /// docs/scaling.md). Results are bitwise-identical for every B.
  /// Ignored when the caller hands make_engine a pre-built device.
  std::uint32_t boards = 0;
};

/// Per-engine cumulative statistics (reset with reset_stats()).
struct EngineStats {
  std::uint64_t evaluations = 0;     ///< compute() calls
  std::uint64_t interactions = 0;    ///< pairwise interactions evaluated
  tree::WalkStats walk;              ///< tree engines only
  double seconds_total = 0.0;        ///< host wall clock, whole compute()
  double seconds_tree_build = 0.0;
  /// Traversal + list packing, including a multi-lane grape tree
  /// engine's count-only pre-walk. Summed over worker lanes (per-lane busy
  /// time), so with threads > 1 this is CPU seconds and may exceed
  /// seconds_total; divide by the thread count for a wall-clock estimate.
  double seconds_walk = 0.0;
  /// List evaluation — host kernel or emulated GRAPE-5 — with the same
  /// per-lane summing as seconds_walk (CPU seconds across lanes).
  double seconds_kernel = 0.0;
  std::uint64_t groups = 0;          ///< interaction lists shipped

  /// The phases run after `before`, an earlier snapshot of the same
  /// engine's stats: every count and time less before's (max_list stays
  /// this one's).
  [[nodiscard]] EngineStats since(const EngineStats& before) const {
    EngineStats d = *this;
    d.evaluations -= before.evaluations;
    d.interactions -= before.interactions;
    d.walk.lists -= before.walk.lists;
    d.walk.interactions -= before.walk.interactions;
    d.walk.list_entries -= before.walk.list_entries;
    d.walk.node_terms -= before.walk.node_terms;
    d.walk.particle_terms -= before.walk.particle_terms;
    d.walk.nodes_visited -= before.walk.nodes_visited;
    d.seconds_total -= before.seconds_total;
    d.seconds_tree_build -= before.seconds_tree_build;
    d.seconds_walk -= before.seconds_walk;
    d.seconds_kernel -= before.seconds_kernel;
    d.groups -= before.groups;
    return d;
  }
};

class ForceEngine {
 public:
  explicit ForceEngine(const ForceParams& params) : params_(params) {}
  virtual ~ForceEngine() = default;
  ForceEngine(const ForceEngine&) = delete;
  ForceEngine& operator=(const ForceEngine&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Fill pset.acc() and pset.pot() from pset.pos()/mass().
  virtual void compute(model::ParticleSet& pset) = 0;

  /// Fill acc()/pot() for the given target indices ONLY (other entries
  /// must be left untouched — the block-timestep integrator relies on
  /// this). Sources are always the full set.
  virtual void compute_targets(model::ParticleSet& pset,
                               std::span<const std::uint32_t> targets) = 0;

  /// The emulated GRAPE-5 whose account and meters this engine charges;
  /// nullptr for host engines.
  [[nodiscard]] virtual grape::Grape5Device* grape_device() const noexcept {
    return nullptr;
  }

  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  virtual void reset_stats() { stats_ = EngineStats{}; }

  [[nodiscard]] const ForceParams& params() const noexcept { return params_; }
  void set_params(const ForceParams& params) { params_ = params; }

 protected:
  ForceParams params_;
  EngineStats stats_;
};

}  // namespace g5::core
