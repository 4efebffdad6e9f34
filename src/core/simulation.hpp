// Simulation driver: the run loop of the paper's experiment.
//
// Owns the integrator and engine, advances a ParticleSet for a number of
// steps, collects per-step work statistics (interaction counts, list
// lengths, wall clocks, GRAPE account) and optionally writes snapshots —
// everything the Section 5 report needs from a run.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/diagnostics.hpp"
#include "core/engine.hpp"
#include "core/integrator.hpp"
#include "grape/timing.hpp"
#include "model/particles.hpp"
#include "obs/probe.hpp"

namespace g5::core {

struct SimulationConfig {
  double dt = 0.01;
  std::uint64_t steps = 100;
  /// Optional per-step sizes. When non-empty it overrides dt/steps: the
  /// run takes dt_schedule.size() steps of the given sizes (cosmological
  /// runs use Cosmology::log_a_timesteps here).
  std::vector<double> dt_schedule;
  /// Snapshot every k steps (0 = never); files "<prefix>_NNNN.g5snap".
  std::uint64_t snapshot_every = 0;
  std::string snapshot_prefix = "snapshot";
  /// Energy/momentum diagnostics every k steps (0 = start/end only).
  std::uint64_t diag_every = 0;
  /// Log a progress line every k steps (0 = off).
  std::uint64_t log_every = 10;
  /// If non-empty, write a per-step CSV time series to this path:
  /// step,time,interactions,lists,mean_list,kinetic,potential,total_energy.
  std::string stats_csv;
  /// If non-empty, write one obs::StepMetrics JSON object per step to
  /// this path (JSON Lines; schema in tools/schema/metrics.schema.json).
  std::string metrics_jsonl;
  /// Run the force-error probe (obs/probe.hpp) and the conservation
  /// drift gauges every k steps (0 = off). The probe re-evaluates
  /// probe_samples particles with the exact host kernel — O(samples * N)
  /// per call — and is bitwise-invariant across threads/pipeline depth.
  std::uint64_t probe_every = 0;
  std::uint32_t probe_samples = 64;
  std::uint64_t probe_seed = 0x5eedULL;
};

struct SimulationSummary {
  std::uint64_t steps = 0;
  double wall_seconds = 0.0;       ///< measured, whole run
  EngineStats engine;              ///< cumulative engine statistics
  /// The prime force phase's alone: `engine` covers it and every
  /// step's, so engine.since(prime) is the steps' work.
  EngineStats prime;
  grape::HardwareAccount grape;    ///< zeroed for host engines
  EnergyReport energy_initial;
  EnergyReport energy_final;
  double energy_drift = 0.0;       ///< relative
  math::Vec3d momentum_drift{};    ///< |p_final - p_initial| per component
  double angular_momentum_drift = 0.0;  ///< |L_final - L_initial|
  std::uint64_t snapshots_written = 0;
  /// Force-error probe results (probe_every > 0): the last measurement
  /// of the run and how many times the probe fired.
  obs::ProbeResult probe_last;
  std::uint64_t probe_calls = 0;
};

class Simulation {
 public:
  /// The engine is borrowed for the lifetime of the simulation.
  Simulation(ForceEngine& engine, const SimulationConfig& config);

  /// Optional per-step hook (step index, particle set) — benches use it to
  /// sample statistics mid-run.
  void set_step_hook(
      std::function<void(std::uint64_t, const model::ParticleSet&)> hook) {
    hook_ = std::move(hook);
  }

  /// Run the configured number of steps; returns the summary.
  SimulationSummary run(model::ParticleSet& pset);

  [[nodiscard]] const SimulationConfig& config() const noexcept {
    return cfg_;
  }

 private:
  ForceEngine& engine_;
  SimulationConfig cfg_;
  std::function<void(std::uint64_t, const model::ParticleSet&)> hook_;
};

}  // namespace g5::core
