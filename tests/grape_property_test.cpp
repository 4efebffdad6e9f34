// Property-style parameterized sweeps of the emulated hardware: the
// pipeline contract must hold across range windows, softenings, mass
// scales and format widths — not just at the defaults the other tests use.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "grape/driver.hpp"
#include "grape/host_reference.hpp"
#include "grape_chunked.hpp"
#include "ic/uniform.hpp"
#include "math/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace g5;
using grape::Vec3d;

// ---------------------------------------------------------------------
// Sweep 1: the device must agree with the host reference for any sane
// (window, eps) combination — window scale spans 6 decades.
// ---------------------------------------------------------------------

class DeviceWindowSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(DeviceWindowSweep, AgreesWithHostReference) {
  const double scale = std::get<0>(GetParam());
  const double eps_frac = std::get<1>(GetParam());
  const double eps = eps_frac * scale;

  // Particles spread over a window of the given scale.
  auto src = ic::make_uniform_cube(256, -scale, scale, 1.0, 11);
  grape::SystemConfig cfg;
  cfg.board.jmem_capacity = 1024;
  grape::Grape5Device device(cfg);
  device.set_range(-2.0 * scale, 2.0 * scale, src.mass()[0]);
  device.set_eps(eps);
  device.set_j(src.pos(), src.mass());

  std::vector<Vec3d> acc(64), ref(64);
  std::vector<double> pot(64), pref(64);
  const std::span<const Vec3d> targets(src.pos().data(), 64);
  device.compute_forces(targets, acc, pot);
  grape::host_forces_on_targets(targets, src.pos(), src.mass(), eps, ref,
                                pref);

  util::RunningStat err;
  for (std::size_t i = 0; i < 64; ++i) {
    const double rn = ref[i].norm();
    if (rn > 0.0) err.add((acc[i] - ref[i]).norm() / rn);
  }
  // Whole-force error averages below the ~0.35 % pairwise figure; the
  // bound must hold at every window scale (scale invariance of the
  // fixed-point + log-format datapath).
  EXPECT_LT(err.rms(), 0.01) << "scale=" << scale << " eps=" << eps;
  EXPECT_FALSE(device.system().any_saturation());
}

INSTANTIATE_TEST_SUITE_P(
    Windows, DeviceWindowSweep,
    ::testing::Combine(::testing::Values(1e-3, 1.0, 1e3),
                       ::testing::Values(1e-3, 1e-2, 1e-1)));

// ---------------------------------------------------------------------
// Sweep 2: mass dynamic range — mixed light/heavy sources must not break
// the accumulator scaling (quanta derive from the minimum mass).
// ---------------------------------------------------------------------

class MassRangeSweep : public ::testing::TestWithParam<double> {};

TEST_P(MassRangeSweep, MixedMassesAccurate) {
  const double ratio = GetParam();  // heaviest / lightest
  math::Rng rng(13);
  const std::size_t n = 256;
  std::vector<Vec3d> pos(n);
  std::vector<double> mass(n);
  double min_mass = 1e300;
  for (std::size_t j = 0; j < n; ++j) {
    pos[j] = rng.in_box(Vec3d{-1, -1, -1}, Vec3d{1, 1, 1});
    mass[j] = std::pow(ratio, rng.uniform());
    min_mass = std::min(min_mass, mass[j]);
  }
  grape::SystemConfig cfg;
  cfg.board.jmem_capacity = 1024;
  grape::Grape5Device device(cfg);
  device.set_range(-2.0, 2.0, min_mass);
  device.set_eps(0.02);
  device.set_j(pos, mass);

  std::vector<Vec3d> acc(32), ref(32);
  std::vector<double> pot(32), pref(32);
  const std::span<const Vec3d> targets(pos.data(), 32);
  device.compute_forces(targets, acc, pot);
  grape::host_forces_on_targets(targets, pos, mass, 0.02, ref, pref);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_LT((acc[i] - ref[i]).norm() / ref[i].norm(), 0.02)
        << "ratio=" << ratio << " i=" << i;
  }
  EXPECT_FALSE(device.system().any_saturation());
}

INSTANTIATE_TEST_SUITE_P(Ratios, MassRangeSweep,
                         ::testing::Values(1.0, 1e2, 1e4));

TEST(MassRangeSweep, ExtremeRatioSaturatesAndIsDetected) {
  // The 64-bit accumulator's dynamic range bounds the usable mass ratio:
  // (range/eps)^2 * m_max/m_min must stay below ~2^63 headroom. A 1e6
  // ratio at eps = 1% of the window exceeds it; the hardware cannot
  // silently return garbage — the saturation flag must latch.
  math::Rng rng(13);
  const std::size_t n = 256;
  std::vector<Vec3d> pos(n);
  std::vector<double> mass(n);
  for (std::size_t j = 0; j < n; ++j) {
    pos[j] = rng.in_box(Vec3d{-1, -1, -1}, Vec3d{1, 1, 1});
    mass[j] = std::pow(1e6, rng.uniform());
  }
  grape::SystemConfig cfg;
  cfg.board.jmem_capacity = 1024;
  grape::Grape5Device device(cfg);
  device.set_range(-2.0, 2.0, 1.0);  // min mass
  device.set_eps(0.02);
  device.set_j(pos, mass);
  std::vector<Vec3d> acc(32);
  std::vector<double> pot(32);
  device.compute_forces(std::span<const Vec3d>(pos.data(), 32), acc, pot);
  EXPECT_TRUE(device.system().any_saturation());
}

// ---------------------------------------------------------------------
// Sweep 3: chunked evaluation must be invariant to the j-memory capacity
// (the driver's chunk boundaries are an implementation detail).
// ---------------------------------------------------------------------

class ChunkSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkSweep, ResultIndependentOfJmemCapacity) {
  const std::size_t jmem = GetParam();
  const auto src = ic::make_uniform_cube(700, -1.0, 1.0, 1.0, 17);
  std::vector<Vec3d> acc(16);
  std::vector<double> pot(16);
  const std::span<const Vec3d> targets(src.pos().data(), 16);

  grape::SystemConfig cfg;
  cfg.board.jmem_capacity = jmem;
  grape::Grape5Device device(cfg);
  device.set_range(-2.0, 2.0, src.mass()[0]);
  device.set_eps(0.01);
  testutil::chunked_forces(device.system(), targets, src.pos(), src.mass(),
                           acc, pot);

  // Reference: one huge memory.
  grape::SystemConfig big;
  big.board.jmem_capacity = 4096;
  grape::Grape5Device ref_device(big);
  ref_device.set_range(-2.0, 2.0, src.mass()[0]);
  ref_device.set_eps(0.01);
  std::vector<Vec3d> ref(16);
  std::vector<double> pref(16);
  testutil::chunked_forces(ref_device.system(), targets, src.pos(), src.mass(),
                           ref, pref);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_LT((acc[i] - ref[i]).norm(), 1e-9 + 1e-7 * ref[i].norm())
        << "jmem=" << jmem;
    EXPECT_NEAR(pot[i], pref[i], 1e-9 + 1e-7 * std::fabs(pref[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, ChunkSweep,
                         ::testing::Values(32, 100, 256, 350, 1024));

// ---------------------------------------------------------------------
// Sweep 4: format width — whole-force error must fall monotonically (and
// roughly geometrically) with the log-format width.
// ---------------------------------------------------------------------

class FormatSweep : public ::testing::TestWithParam<int> {};

TEST_P(FormatSweep, WholeForceErrorBounded) {
  const int bits = GetParam();
  grape::SystemConfig cfg;
  cfg.board.jmem_capacity = 1024;
  cfg.numerics.lns_frac_bits = bits;
  cfg.numerics.table_index_bits = 0;
  grape::Grape5Device device(cfg);

  const auto src = ic::make_uniform_cube(256, -1.0, 1.0, 1.0, 19);
  device.set_range(-2.0, 2.0, src.mass()[0]);
  device.set_eps(0.02);
  device.set_j(src.pos(), src.mass());
  std::vector<Vec3d> acc(64), ref(64);
  std::vector<double> pot(64), pref(64);
  const std::span<const Vec3d> targets(src.pos().data(), 64);
  device.compute_forces(targets, acc, pot);
  grape::host_forces_on_targets(targets, src.pos(), src.mass(), 0.02, ref,
                                pref);
  util::RunningStat err;
  for (std::size_t i = 0; i < 64; ++i) {
    err.add((acc[i] - ref[i]).norm() / ref[i].norm());
  }
  // Loose per-width cap: ~ a few x 2^-bits.
  EXPECT_LT(err.rms(), 6.0 * std::ldexp(1.0, -bits)) << bits;
}

INSTANTIATE_TEST_SUITE_P(Widths, FormatSweep,
                         ::testing::Values(6, 8, 10, 12));

}  // namespace
