// Single-lane replay of one force phase through the layers' public calls.
//
// The replay does what the workload's engine does, in group order, on
// the benchmark's thread and with a span around each layer call:
//
//   BhTree::build -> collect_groups -> walk_group / walk_original ->
//     grape-tree:  Grape5System::set_j_particles + compute_raw + readout
//     host-tree:   evaluate_list_host
//
// The grape path uses the device window the engines use
// (core::configure_device_window) and merges every j-chunk's integer
// partial sums before one conversion, so its forces are bitwise the
// engine's. The host path calls the same kernel on the same lists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/vec3.hpp"
#include "model/particles.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace g5bench {

struct ReplayResult {
  /// Forces in the caller's particle order; only `replayed` are filled.
  std::vector<g5::math::Vec3d> acc;
  std::vector<double> pot;
  std::vector<std::uint32_t> replayed;  ///< caller indices evaluated

  std::uint64_t interactions = 0;
  std::uint64_t lists = 0;         ///< interaction lists walked
  std::uint64_t list_entries = 0;  ///< sum of list lengths
  std::uint64_t groups = 0;        ///< collect_groups count (grouped walk)

  // grape-tree only (zero on the host workloads).
  std::uint64_t j_words = 0;          ///< j-particles uploaded
  std::uint64_t i_particles = 0;      ///< i-particles read out
  std::uint64_t driver_calls = 0;     ///< one per interaction list
  std::uint64_t saturated_calls = 0;  ///< calls after which saturation held
  std::uint64_t i_processed = 0;      ///< HardwareAccount, summed over calls
  std::uint64_t vmp_slots = 0;
  double modeled_s = 0.0;  ///< HardwareAccount::modeled_total, summed

  /// Wall of the layer calls (build through the last readout).
  double force_seconds = 0.0;
};

/// Replay the force phase of `w` on the current positions of `pset`.
/// `sample` == 0 replays every list; otherwise only `sample` seeded lists
/// (groups, or particles for the per-particle walk), which is how every
/// untraced run spot-checks the engine. `rec` may be null.
ReplayResult replay_force_phase(const g5::model::ParticleSet& pset,
                                const Workload& w, std::size_t sample,
                                std::uint64_t sample_seed, SpanRecorder* rec);

}  // namespace g5bench
