// Comoving-coordinate integration for cosmological runs.
//
// The paper integrates its sphere in physical coordinates; the standard
// alternative (and what most later treecodes adopted) factors the uniform
// Hubble expansion out. With comoving positions x = r / a and canonical
// momenta p = a^2 dx/dt the equations of motion are
//
//   dx/dt = p / a^2
//   dp/dt = [ g_com(x) + C(a) x ] / a ,
//
// where g_com is the G=1 gravitational acceleration computed from the
// comoving configuration (any ForceEngine) and C(a) x is the background
// term (Cosmology::comoving_background_coefficient) that cancels the
// region's own mean-field pull — for an unperturbed lattice the peculiar
// force vanishes identically. The KDK leapfrog uses the exact kick/drift
// time integrals over each scale-factor interval, with steps uniform in
// ln a.
//
// The ParticleSet convention inside a comoving run: pos() holds comoving
// positions x, vel() holds canonical momenta p. Use physical_to_comoving /
// comoving_to_physical to convert at the boundaries.
#pragma once

#include <cstdint>

#include "core/engine.hpp"
#include "model/cosmology.hpp"
#include "model/particles.hpp"

namespace g5::core {

struct ComovingConfig {
  model::CosmologyParams cosmo = model::CosmologyParams::scdm();
  double a_start = 0.04;  ///< the paper's z = 24
  double a_end = 1.0;
  std::uint64_t steps = 64;
  std::uint64_t log_every = 0;
};

struct ComovingSummary {
  std::uint64_t steps = 0;
  double wall_seconds = 0.0;
  EngineStats engine;
  /// The first force phase's alone, before any step (see
  /// SimulationSummary::prime).
  EngineStats prime;
  double a_final = 0.0;
  /// rms comoving displacement over the run (growth diagnostic).
  double rms_comoving_displacement = 0.0;
};

class ComovingSimulation {
 public:
  ComovingSimulation(ForceEngine& engine, const ComovingConfig& config);

  /// Advance pset (comoving convention, see header comment) from a_start
  /// to a_end. The engine's eps is interpreted as a *comoving* softening.
  ComovingSummary run(model::ParticleSet& pset);

  /// Convert a physical-coordinate snapshot at scale factor a into the
  /// comoving convention (x = r/a, p = a (v - H r)).
  static void physical_to_comoving(model::ParticleSet& pset,
                                   const model::Cosmology& cosmo, double a);

  /// Inverse conversion (r = a x, v = H r + p / a).
  static void comoving_to_physical(model::ParticleSet& pset,
                                   const model::Cosmology& cosmo, double a);

  [[nodiscard]] const ComovingConfig& config() const noexcept { return cfg_; }

 private:
  ForceEngine& engine_;
  ComovingConfig cfg_;
  model::Cosmology cosmo_;

  /// Compute the peculiar force g_com + C(a) x into pset.acc().
  void peculiar_force(model::ParticleSet& pset, double a);
};

}  // namespace g5::core
