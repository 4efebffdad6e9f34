// Sampling force-error probe: in-run accuracy telemetry.
//
// Every measurement re-evaluates a deterministic random subset of
// particles with the exact O(N) host kernel (grape::host_reference) and
// splits the engine's relative force error into its two physical
// components, following the paper's Section 3 error budget:
//
//   * tree error  — a host-double Barnes-Hut walk against the exact
//     sum: the multipole-acceptance truncation alone (~0.1 % for the
//     paper's theta);
//   * codec error — the sampled interaction list pushed through the
//     emulated GRAPE-5 pipeline vs the same list in host double: the
//     number-format error alone (~0.3 % pairwise for 8-bit LNS
//     fractions);
//   * total error — the engine-produced accelerations against the
//     exact sum (what the simulation actually integrates).
//
// The probe runs serially in double precision on the host, so its
// results are bitwise-invariant across walk threads and pipeline depth;
// the sampled subset is a pure function of (seed, call index), so a
// fixed seed reproduces the same numbers run after run.
//
// Compiled into its own target (g5_obs_probe): unlike the rest of
// src/obs/ — which sits below every other library — the probe *uses*
// tree/grape/model, so it must not live in g5_obs itself.
#pragma once

#include <cstdint>
#include <vector>

#include "grape/config.hpp"
#include "grape/pipeline.hpp"
#include "model/particles.hpp"
#include "tree/tree.hpp"
#include "tree/walk.hpp"

namespace g5::obs {

/// What to sample and which engine geometry to replicate. The walk
/// parameters mirror the force engine's ForceParams (Simulation fills
/// them in), but the probe always walks per-particle (original
/// algorithm) lists and has no n_crit: for a grouped engine
/// (grape-tree, host-tree-modified) its tree and codec legs measure the
/// original algorithm's lists, not the grouped lists the engine
/// shipped, whatever n_crit is.
struct ProbeConfig {
  std::uint32_t samples = 64;     ///< particles re-evaluated per call
  std::uint64_t seed = 0x5eedULL; ///< sampling stream seed
  double eps = 0.01;              ///< Plummer softening
  double theta = 0.75;            ///< opening angle
  tree::Mac mac = tree::Mac::Edge;
  std::uint32_t leaf_max = 8;
  bool quadrupole = false;        ///< host-tree engines only
  /// Pipeline backend the codec leg replicates (mirror the engine's
  /// ForceParams::backend). With BackendKind::Native the codec error
  /// collapses to the coordinate-quantization floor (~0).
  grape::BackendKind backend = grape::BackendKind::BitExact;
  /// Run the codec leg. Off for an engine with no GRAPE device (the
  /// host-tree engines): no pipeline touched its forces, so there is no
  /// codec error to judge, and ProbeResult's codec fields read NaN.
  bool codec = true;
};

/// Error distribution over one sampled subset. Percentiles are exact
/// order statistics of the sample (not histogram estimates). All errors
/// are |dF| / |F_reference|; samples with |F_reference| == 0 are skipped.
/// The codec fields are NaN when ProbeConfig::codec is off.
struct ProbeResult {
  std::uint32_t samples = 0;  ///< usable samples (skips excluded)
  double total_p50 = 0.0, total_p99 = 0.0, total_max = 0.0;
  double tree_p50 = 0.0, tree_p99 = 0.0, tree_max = 0.0;
  double codec_p50 = 0.0, codec_p99 = 0.0, codec_max = 0.0;
};

class ForceErrorProbe {
 public:
  explicit ForceErrorProbe(const ProbeConfig& config) : config_(config) {}

  /// Measure the error split on the current state. pset.acc() must hold
  /// the engine's accelerations for the current positions. Publishes
  /// the g5.err.* histograms/gauges when instrumentation is enabled and
  /// returns the result either way.
  ProbeResult measure(const model::ParticleSet& pset);

  [[nodiscard]] const ProbeConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }

 private:
  ProbeConfig config_;
  std::uint64_t calls_ = 0;
  // Scratch reused across calls to keep the probe allocation-quiet.
  tree::BhTree tree_;
  tree::InteractionList list_;
  std::vector<grape::JWord> jwords_;
  grape::EvalStage stage_;
  std::vector<std::uint32_t> indices_;
  std::vector<double> err_total_, err_tree_, err_codec_;
};

}  // namespace g5::obs
