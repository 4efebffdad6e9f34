// Snapshot analysis: the quantitative companions to Figure 4.
//
// The paper shows clustering qualitatively (a slab plot); these estimators
// quantify it: the two-point correlation function xi(r) (the standard
// clustering statistic of the era), spherical density/velocity profiles,
// and nearest-neighbour statistics. All estimators are exact (the
// correlation function counts pairs through a spatial hash of cell size
// r_max, so large snapshots stay tractable).
#pragma once

#include <cstdint>
#include <vector>

#include "model/particles.hpp"

namespace g5::core {

using math::Vec3d;

/// Two-point correlation function estimate on logarithmic radial bins.
///
/// xi(r) = DD(r) / RR_analytic(r) - 1, with DD the data pair counts and
/// RR the expectation for an unclustered (Poisson) distribution of the
/// same density in the same spherical volume — the natural estimator for
/// an isolated sphere (no random catalog needed).
struct CorrelationFunction {
  std::vector<double> r_lo, r_hi;   ///< bin edges
  std::vector<double> xi;           ///< estimate per bin
  std::vector<std::uint64_t> pairs; ///< DD counts per bin
  double sample_radius = 0.0;       ///< sphere radius used for RR
  std::size_t n_used = 0;           ///< particles inside the sample sphere
};

struct CorrelationConfig {
  double r_min = 0.05;
  double r_max = 5.0;
  std::size_t bins = 16;
  /// Restrict the sample to particles within this radius of the centre of
  /// mass (0 = use the 90th-percentile radius, which keeps the estimator
  /// away from the ragged edge of the sphere).
  double sample_radius = 0.0;
};

CorrelationFunction correlation_function(const model::ParticleSet& pset,
                                         const CorrelationConfig& config);

/// Spherically averaged profiles about the centre of mass.
struct RadialProfile {
  std::vector<double> r_lo, r_hi;
  std::vector<std::uint64_t> count;
  std::vector<double> density;         ///< mass / shell volume
  std::vector<double> mean_radial_vel; ///< mass-weighted <v_r>
  std::vector<double> vel_dispersion;  ///< 3-D sigma about the shell mean
  double total_mass = 0.0;
};

struct RadialProfileConfig {
  double r_max = 0.0;     ///< 0 = max particle radius
  std::size_t bins = 24;
  bool log_bins = false;  ///< logarithmic bins from r_max/1e3
};

RadialProfile radial_profile(const model::ParticleSet& pset,
                             const RadialProfileConfig& config);

/// Lagrangian radii: radii enclosing the given mass fractions (about the
/// centre of mass). fractions must be in (0, 1].
std::vector<double> lagrangian_radii(const model::ParticleSet& pset,
                                     const std::vector<double>& fractions);

/// Mean nearest-neighbour distance of a random subset (clustering proxy;
/// ~ 0.554 * n^(-1/3) for a Poisson process of number density n).
double mean_nearest_neighbour(const model::ParticleSet& pset,
                              std::size_t probes, std::uint64_t seed);

}  // namespace g5::core
