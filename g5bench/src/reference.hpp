// Force-error reference: an exact double-precision direct sum, in the
// benchmark's own code, on a seeded sample of particles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "math/vec3.hpp"

namespace g5bench {

/// Relative error |a - a_exact| / |a_exact| of `acc` on `samples` seeded
/// particles, a_exact being the softened direct sum over all others.
std::vector<double> relative_force_errors(
    std::span<const g5::math::Vec3d> pos, std::span<const double> mass,
    std::span<const g5::math::Vec3d> acc, double eps, std::size_t samples,
    std::uint64_t sample_seed, unsigned threads);

/// Linear-interpolated quantile of `v` (0 <= q <= 1); v is sorted in place.
double quantile(std::span<double> v, double q);

}  // namespace g5bench
