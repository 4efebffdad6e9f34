#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "grape/driver.hpp"
#include "grape/host_reference.hpp"
#include "grape_chunked.hpp"
#include "ic/uniform.hpp"

namespace {

using namespace g5;
using grape::Grape5Device;
using grape::SystemConfig;
using grape::Vec3d;

SystemConfig tiny_config(std::size_t jmem = 512) {
  SystemConfig cfg;
  cfg.board.jmem_capacity = jmem;
  return cfg;
}

TEST(Grape5Device, ChunkedEqualsResident) {
  // A j-list longer than the particle memory must give the same forces as
  // an unchunked evaluation on a big-memory device.
  const auto src = ic::make_uniform_cube(1500, -1.0, 1.0, 1.0, 13);
  std::vector<Vec3d> acc_small(32), acc_big(32);
  std::vector<double> pot_small(32), pot_big(32);
  const std::span<const Vec3d> targets(src.pos().data(), 32);

  Grape5Device small(tiny_config(512));  // 1024 aggregate < 1500
  small.set_range(-2.0, 2.0, src.mass()[0]);
  small.set_eps(0.02);
  testutil::chunked_forces(small.system(), targets, src.pos(), src.mass(),
                           acc_small, pot_small);

  Grape5Device big(tiny_config(4096));
  big.set_range(-2.0, 2.0, src.mass()[0]);
  big.set_eps(0.02);
  big.set_j(src.pos(), src.mass());
  big.compute_forces(targets, acc_big, pot_big);

  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_LT((acc_small[i] - acc_big[i]).norm(),
              1e-8 + 1e-6 * acc_big[i].norm())
        << i;
    EXPECT_NEAR(pot_small[i], pot_big[i], 1e-8 + 1e-6 * std::fabs(pot_big[i]))
        << i;
  }
}

TEST(Grape5Device, AgainstHostReference) {
  const auto src = ic::make_uniform_cube(400, -1.0, 1.0, 1.0, 17);
  Grape5Device device(tiny_config());
  device.set_range(-2.0, 2.0, src.mass()[0]);
  device.set_eps(0.01);
  std::vector<Vec3d> acc(400), ref_acc(400);
  std::vector<double> pot(400), ref_pot(400);
  testutil::chunked_forces(device.system(), src.pos(), src.pos(), src.mass(),
                           acc, pot);
  grape::host_forces_on_targets(src.pos(), src.pos(), src.mass(), 0.01,
                                ref_acc, ref_pot);
  double worst = 0.0;
  for (std::size_t i = 0; i < 400; ++i) {
    worst = std::max(worst, (acc[i] - ref_acc[i]).norm() / ref_acc[i].norm());
  }
  EXPECT_LT(worst, 0.05);
}

TEST(Grape5Device, Validation) {
  Grape5Device device(tiny_config());
  EXPECT_THROW(device.set_range(1.0, 1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(device.set_eps(-1.0), std::invalid_argument);
  EXPECT_THROW(device.set_eps(std::nan("")), std::invalid_argument);
  EXPECT_THROW(device.set_eps(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  const auto src = ic::make_uniform_cube(8, -1.0, 1.0, 1.0, 1);
  EXPECT_THROW(device.set_j(src.pos(), src.mass()), std::logic_error);
}

class CApi : public ::testing::Test {
 protected:
  void SetUp() override {
    grape::g5_close();  // clean slate even if a prior test leaked state
    grape::g5_open();
  }
  void TearDown() override { grape::g5_close(); }
};

TEST_F(CApi, FullSequenceMatchesHost) {
  const std::size_t n = 300;
  const auto src = ic::make_uniform_cube(n, -1.0, 1.0, 1.0, 19);
  std::vector<double> xj(3 * n), mj(n);
  for (std::size_t j = 0; j < n; ++j) {
    xj[3 * j] = src.pos()[j].x;
    xj[3 * j + 1] = src.pos()[j].y;
    xj[3 * j + 2] = src.pos()[j].z;
    mj[j] = src.mass()[j];
  }
  grape::g5_set_range(-2.0, 2.0, mj[0]);
  grape::g5_set_eps_to_all(0.02);
  grape::g5_set_n(static_cast<int>(n));
  grape::g5_set_xmj(0, static_cast<int>(n),
                    reinterpret_cast<const double(*)[3]>(xj.data()), mj.data());

  const int ni = 17;
  grape::g5_set_xi(ni, reinterpret_cast<const double(*)[3]>(xj.data()));
  grape::g5_run();
  std::vector<double> a(3 * static_cast<std::size_t>(ni)),
      p(static_cast<std::size_t>(ni));
  grape::g5_get_force(ni, reinterpret_cast<double(*)[3]>(a.data()), p.data());

  std::vector<Vec3d> ref_acc(static_cast<std::size_t>(ni));
  std::vector<double> ref_pot(static_cast<std::size_t>(ni));
  grape::host_forces_on_targets(
      std::span<const Vec3d>(src.pos().data(), static_cast<std::size_t>(ni)),
      src.pos(), src.mass(), 0.02, ref_acc, ref_pot);
  for (int i = 0; i < ni; ++i) {
    const Vec3d got{a[3 * i], a[3 * i + 1], a[3 * i + 2]};
    EXPECT_LT((got - ref_acc[static_cast<std::size_t>(i)]).norm() /
                  ref_acc[static_cast<std::size_t>(i)].norm(),
              0.05)
        << i;
  }
}

TEST_F(CApi, ContractViolationsThrow) {
  EXPECT_GT(grape::g5_get_number_of_pipelines(), 0);
  EXPECT_GT(grape::g5_get_jmemsize(), 0);
  // xi before any setup.
  std::vector<double> x(3 * 4, 0.5);
  EXPECT_THROW(grape::g5_run(), std::logic_error);
  grape::g5_set_range(-1.0, 1.0, 0.1);
  grape::g5_set_n(4);
  EXPECT_THROW(
      grape::g5_set_xmj(2, 4, reinterpret_cast<const double(*)[3]>(x.data()),
                        x.data()),
      std::out_of_range);
  EXPECT_THROW(grape::g5_set_n(grape::g5_get_jmemsize() + 1),
               std::out_of_range);
  EXPECT_THROW(
      grape::g5_set_xi(grape::g5_get_number_of_pipelines() + 1,
                       reinterpret_cast<const double(*)[3]>(x.data())),
      std::out_of_range);
  // get_force before run.
  grape::g5_set_xi(4, reinterpret_cast<const double(*)[3]>(x.data()));
  double a[4][3], p[4];
  EXPECT_THROW(grape::g5_get_force(4, a, p), std::logic_error);
}

TEST_F(CApi, ClosedDeviceRejectsCalls) {
  grape::g5_close();
  EXPECT_FALSE(grape::g5_is_open());
  EXPECT_THROW(grape::g5_set_range(-1.0, 1.0, 0.1), std::logic_error);
  EXPECT_THROW(grape::g5_get_number_of_pipelines(), std::logic_error);
}

TEST_F(CApi, PipelineCountMatchesPaperSystem) {
  // 2 boards x 16 pipelines x VMP 6 = 192 virtual i-slots.
  EXPECT_EQ(grape::g5_get_number_of_pipelines(), 192);
  EXPECT_EQ(grape::g5_get_jmemsize(), 262144);
}

}  // namespace
