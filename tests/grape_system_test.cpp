#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "grape/host_reference.hpp"
#include "grape/system.hpp"
#include "ic/uniform.hpp"
#include "math/rng.hpp"

namespace {

using namespace g5;
using grape::Grape5System;
using grape::SystemConfig;
using grape::Vec3d;

SystemConfig tiny_config(std::size_t boards = 2, std::size_t jmem = 1024) {
  SystemConfig cfg;
  cfg.boards = boards;
  cfg.board.jmem_capacity = jmem;
  return cfg;
}

/// Forces of the resident j-set through the raw readout: merge into
/// zeroed integer registers, convert once.
void compute(Grape5System& sys, std::span<const Vec3d> targets,
             std::span<Vec3d> acc, std::span<double> pot) {
  std::vector<grape::RawForce> raw(targets.size());
  sys.compute_raw(targets, raw);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    sys.pipeline().convert_raw(raw[i], acc[i], pot[i]);
  }
}

TEST(Grape5System, BoardCountBitwiseAbove2To53Counts) {
  // A mass scale 2^-8 of the particle mass puts the accumulator quanta
  // 2^8 finer than the engines' default, so the counts pass 2^53 while
  // staying below the rail. The registers add exactly in int64, so
  // B = 1 and B = 3 still merge to the same counts on both backends.
  const auto src = ic::make_uniform_cube(500, -1.0, 1.0, 1.0, 23);
  constexpr std::size_t kNi = 40;
  const std::span<const Vec3d> targets(src.pos().data(), kNi);
  for (const auto backend :
       {grape::BackendKind::BitExact, grape::BackendKind::Native}) {
    const std::string what(grape::backend_name(backend));
    std::vector<grape::RawForce> raw[2];
    const std::size_t boards[2] = {1, 3};
    for (int k = 0; k < 2; ++k) {
      SystemConfig cfg = tiny_config(boards[k]);
      cfg.numerics.backend = backend;
      Grape5System sys(cfg);
      sys.set_range(-2.0, 2.0, 0.01, std::ldexp(src.mass()[0], -8));
      sys.set_j_particles(src.pos(), src.mass());
      raw[k].assign(kNi, grape::RawForce{});
      sys.compute_raw(targets, raw[k]);
      EXPECT_FALSE(sys.any_saturation()) << what;
    }
    std::int64_t largest = 0;
    for (std::size_t i = 0; i < kNi; ++i) {
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(raw[0][i].acc[c], raw[1][i].acc[c]) << what << " i=" << i;
        largest = std::max(largest, std::abs(raw[0][i].acc[c]));
      }
      EXPECT_EQ(raw[0][i].pot, raw[1][i].pot) << what << " i=" << i;
      largest = std::max(largest, std::abs(raw[0][i].pot));
    }
    EXPECT_GT(largest, std::int64_t{1} << 53) << what;
  }
}

TEST(Grape5System, PaperConfiguration) {
  const SystemConfig cfg = SystemConfig::paper_system();
  EXPECT_EQ(cfg.boards, 2u);
  EXPECT_EQ(cfg.total_pipelines(), 32u);
  EXPECT_NEAR(cfg.peak_flops(), 109.44e9, 1e6);
  EXPECT_EQ(cfg.board.i_slots(), 96u);
}

TEST(Grape5System, MatchesHostReference) {
  const auto src = ic::make_uniform_cube(600, -1.0, 1.0, 1.0, 3);
  Grape5System sys(tiny_config());
  sys.set_range(-2.0, 2.0, 0.01, 1.0 / 600.0);
  sys.set_j_particles(src.pos(), src.mass());

  std::vector<Vec3d> acc(64), ref_acc(64);
  std::vector<double> pot(64), ref_pot(64);
  const std::span<const Vec3d> targets(src.pos().data(), 64);
  compute(sys, targets, acc, pot);
  grape::host_forces_on_targets(targets, src.pos(), src.mass(), 0.01,
                                ref_acc, ref_pot);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_LT((acc[i] - ref_acc[i]).norm() / ref_acc[i].norm(), 0.02) << i;
    EXPECT_NEAR(pot[i], ref_pot[i], 0.02 * std::fabs(ref_pot[i])) << i;
  }
  EXPECT_FALSE(sys.any_saturation());
}

TEST(Grape5System, BoardPartitioningInvariant) {
  // 1 board vs 3 boards must agree bit-for-bit apart from partial-sum
  // ordering (tolerance: accumulator quantum scale).
  const auto src = ic::make_uniform_cube(333, -1.0, 1.0, 1.0, 7);
  std::vector<Vec3d> acc1(32), acc3(32);
  std::vector<double> pot1(32), pot3(32);
  const std::span<const Vec3d> targets(src.pos().data(), 32);

  Grape5System one(tiny_config(1));
  one.set_range(-2.0, 2.0, 0.02, src.mass()[0]);
  one.set_j_particles(src.pos(), src.mass());
  compute(one, targets, acc1, pot1);

  Grape5System three(tiny_config(3));
  three.set_range(-2.0, 2.0, 0.02, src.mass()[0]);
  three.set_j_particles(src.pos(), src.mass());
  compute(three, targets, acc3, pot3);

  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_LT((acc1[i] - acc3[i]).norm(), 1e-9 + 1e-6 * acc1[i].norm()) << i;
    EXPECT_NEAR(pot1[i], pot3[i], 1e-9 + 1e-6 * std::fabs(pot1[i])) << i;
  }
}

TEST(Grape5System, JmemCapacityEnforced) {
  Grape5System sys(tiny_config(2, 100));
  EXPECT_EQ(sys.jmem_capacity(), 200u);
  const auto src = ic::make_uniform_cube(201, -1.0, 1.0, 1.0, 9);
  sys.set_range(-2.0, 2.0, 0.0, 1.0);
  EXPECT_THROW(sys.set_j_particles(src.pos(), src.mass()), std::out_of_range);
  const auto ok = ic::make_uniform_cube(200, -1.0, 1.0, 1.0, 9);
  EXPECT_NO_THROW(sys.set_j_particles(ok.pos(), ok.mass()));
  EXPECT_EQ(sys.resident_j(), 200u);
}

TEST(Grape5System, CallOrderContract) {
  Grape5System sys(tiny_config());
  const auto src = ic::make_uniform_cube(10, -1.0, 1.0, 1.0, 9);
  std::vector<Vec3d> acc(1);
  std::vector<double> pot(1);
  EXPECT_THROW(sys.set_j_particles(src.pos(), src.mass()), std::logic_error);
  EXPECT_THROW(
      compute(sys, std::span<const Vec3d>(src.pos().data(), 1), acc, pot),
      std::logic_error);
  sys.set_range(-2.0, 2.0, 0.0, 1.0);
  // Range set, but no j resident: computing yields zeros, no throw.
  EXPECT_NO_THROW(
      compute(sys, std::span<const Vec3d>(src.pos().data(), 1), acc, pot));
  EXPECT_EQ(acc[0], (Vec3d{}));
}

TEST(Grape5System, RangeChangeInvalidatesResidentJ) {
  Grape5System sys(tiny_config());
  const auto src = ic::make_uniform_cube(50, -1.0, 1.0, 1.0, 9);
  sys.set_range(-2.0, 2.0, 0.0, 1.0);
  sys.set_j_particles(src.pos(), src.mass());
  EXPECT_EQ(sys.resident_j(), 50u);
  sys.set_range(-4.0, 4.0, 0.0, 1.0);
  EXPECT_EQ(sys.resident_j(), 0u);
}

TEST(Grape5System, AccountTracksWork) {
  Grape5System sys(tiny_config());
  const auto src = ic::make_uniform_cube(128, -1.0, 1.0, 1.0, 9);
  sys.set_range(-2.0, 2.0, 0.01, src.mass()[0]);
  sys.set_j_particles(src.pos(), src.mass());
  std::vector<Vec3d> acc(16);
  std::vector<double> pot(16);
  compute(sys, std::span<const Vec3d>(src.pos().data(), 16), acc, pot);
  const auto& a = sys.account();
  EXPECT_EQ(a.force_calls, 1u);
  EXPECT_EQ(a.interactions, 16u * 128u);
  EXPECT_EQ(a.i_processed, 16u);
  EXPECT_EQ(a.j_uploaded, 128u);
  EXPECT_GT(a.modeled_compute, 0.0);
  EXPECT_GT(a.modeled_dma_j, 0.0);
  EXPECT_GT(a.emulation_wall, 0.0);
  EXPECT_NEAR(a.flops(), 38.0 * 16 * 128, 1e-9);
  EXPECT_GT(sys.bytes_moved(), 0u);

  sys.reset_account();
  EXPECT_EQ(sys.account().force_calls, 0u);
  EXPECT_EQ(sys.bytes_moved(), 0u);
}

TEST(Grape5System, SaturationLatched) {
  // A mass scale wildly below the real masses drives the force quantum so
  // small that accumulators overflow -> latched saturation flag.
  Grape5System sys(tiny_config());
  const auto src = ic::make_uniform_cube(64, -1.0, 1.0, 1e12, 9);
  sys.set_range(-2.0, 2.0, 1e-4, 1e-15);
  sys.set_j_particles(src.pos(), src.mass());
  std::vector<Vec3d> acc(8);
  std::vector<double> pot(8);
  compute(sys, std::span<const Vec3d>(src.pos().data(), 8), acc, pot);
  EXPECT_TRUE(sys.any_saturation());
  sys.reset_account();
  EXPECT_FALSE(sys.any_saturation());
}

TEST(Grape5System, InputValidation) {
  Grape5System sys(tiny_config());
  EXPECT_THROW(sys.set_range(1.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(sys.set_range(-1.0, 1.0, -0.5), std::invalid_argument);
  EXPECT_THROW(sys.set_range(-1.0, 1.0, std::nan("")), std::invalid_argument);
  EXPECT_THROW(sys.set_range(-1.0, 1.0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  sys.set_range(-1.0, 1.0, 0.0, 1.0);
  const auto src = ic::make_uniform_cube(8, -1.0, 1.0, 1.0, 9);
  std::vector<grape::RawForce> raw(4);
  sys.set_j_particles(src.pos(), src.mass());
  EXPECT_THROW(
      sys.compute_raw(std::span<const Vec3d>(src.pos().data(), 8), raw),
      std::invalid_argument);
  SystemConfig bad;
  bad.boards = 0;
  EXPECT_THROW(Grape5System{bad}, std::invalid_argument);
}

TEST(CostModel, PaperNumbers) {
  const grape::CostModel cost;
  EXPECT_NEAR(cost.total_jpy(), 4.7e6, 1e3);
  EXPECT_NEAR(cost.total_usd(), 40900.0, 100.0);
  // $7.0/Mflops at 5.92 Gflops sustained.
  EXPECT_NEAR(cost.usd_per_mflops(5.92e9), 6.90, 0.15);
}

}  // namespace
