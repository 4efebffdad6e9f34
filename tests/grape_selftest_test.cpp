#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "grape/selftest.hpp"
#include "ic/uniform.hpp"

namespace {

using namespace g5::grape;

SystemConfig small_system() {
  SystemConfig cfg;
  cfg.board.jmem_capacity = 2048;
  return cfg;
}

TEST(SelfTest, HealthySystemPasses) {
  Grape5System system(small_system());
  const auto report = run_selftest(system);
  EXPECT_TRUE(report.passed);
  ASSERT_EQ(report.boards.size(), 2u);
  for (const auto& b : report.boards) {
    EXPECT_TRUE(b.passed);
    EXPECT_GT(b.max_relative_error, 0.0);   // quantization is visible
    EXPECT_LT(b.max_relative_error, 0.02);  // but inside tolerance
  }
  EXPECT_NE(report.str().find("PASSED"), std::string::npos);
}

TEST(SelfTest, DetectsFaultyChipOnOneBoard) {
  Grape5System system(small_system());
  system.inject_chip_fault(1, 3, 1.0 / 16.0);  // 6 % gain error
  const auto report = run_selftest(system);
  EXPECT_FALSE(report.passed);
  ASSERT_EQ(report.boards.size(), 2u);
  EXPECT_TRUE(report.boards[0].passed);
  EXPECT_FALSE(report.boards[1].passed);
  EXPECT_NE(report.str().find("FAULTY"), std::string::npos);
}

TEST(SelfTest, SubtleFaultStillCaught) {
  // A 3 % gain error is the size the format noise could almost hide —
  // the per-force tolerance of 2 % must still flag it.
  Grape5System system(small_system());
  system.inject_chip_fault(0, 0, 0.03);
  const auto report = run_selftest(system);
  EXPECT_FALSE(report.boards[0].passed);
}

TEST(SelfTest, ClearedFaultPassesAgain) {
  Grape5System system(small_system());
  system.inject_chip_fault(0, 5);
  EXPECT_FALSE(run_selftest(system).passed);
  system.inject_chip_fault(0, -1);
  EXPECT_TRUE(run_selftest(system).passed);
}

TEST(SelfTest, FaultInjectionValidation) {
  Grape5System system(small_system());
  EXPECT_THROW(system.inject_chip_fault(0, 99), std::out_of_range);
  EXPECT_EQ(system.faulty_chip(0), -1);
  system.inject_chip_fault(0, 2);
  EXPECT_EQ(system.faulty_chip(0), 2);
}

TEST(SelfTest, LeavesSystemUntouched) {
  // The self-test runs on a Pipeline of its own: the system's window,
  // resident set, account and byte meter read the same afterwards, and
  // the resident set still gives the same forces bitwise.
  Grape5System system(small_system());
  const auto src = g5::ic::make_uniform_cube(300, -1.0, 1.0, 1.0, 21);
  system.set_range(-1.5, 1.5, 0.01, src.mass()[0]);
  system.set_j_particles(src.pos(), src.mass());
  constexpr std::size_t kNi = 40;
  const std::span<const Vec3d> targets(src.pos().data(), kNi);
  const auto forces = [&](std::vector<Vec3d>& acc, std::vector<double>& pot) {
    std::vector<RawForce> raw(kNi);
    system.compute_raw(targets, raw);
    acc.resize(kNi);
    pot.resize(kNi);
    for (std::size_t i = 0; i < kNi; ++i) {
      system.pipeline().convert_raw(raw[i], acc[i], pot[i]);
    }
  };
  std::vector<Vec3d> acc_before;
  std::vector<double> pot_before;
  forces(acc_before, pot_before);
  const PipelineScaling scaling = system.scaling();
  const HardwareAccount account = system.account();
  const std::uint64_t bytes = system.bytes_moved();
  const std::size_t resident = system.resident_j();

  ASSERT_TRUE(run_selftest(system).passed);

  const PipelineScaling& installed = system.pipeline().scaling();
  EXPECT_EQ(system.scaling().range_lo, scaling.range_lo);
  EXPECT_EQ(system.scaling().range_hi, scaling.range_hi);
  EXPECT_EQ(installed.range_lo, scaling.range_lo);
  EXPECT_EQ(installed.range_hi, scaling.range_hi);
  EXPECT_EQ(installed.eps, scaling.eps);
  EXPECT_EQ(installed.force_quantum, scaling.force_quantum);
  EXPECT_EQ(installed.potential_quantum, scaling.potential_quantum);
  EXPECT_EQ(system.resident_j(), resident);
  EXPECT_EQ(system.bytes_moved(), bytes);
  const HardwareAccount& after = system.account();
  EXPECT_EQ(after.force_calls, account.force_calls);
  EXPECT_EQ(after.interactions, account.interactions);
  EXPECT_EQ(after.i_processed, account.i_processed);
  EXPECT_EQ(after.j_uploaded, account.j_uploaded);
  EXPECT_EQ(after.vmp_slots, account.vmp_slots);
  EXPECT_EQ(after.modeled_dma_j, account.modeled_dma_j);
  EXPECT_EQ(after.modeled_dma_i, account.modeled_dma_i);
  EXPECT_EQ(after.modeled_compute, account.modeled_compute);
  EXPECT_EQ(after.modeled_dma_result, account.modeled_dma_result);
  EXPECT_EQ(after.emulation_wall, account.emulation_wall);

  std::vector<Vec3d> acc_after;
  std::vector<double> pot_after;
  forces(acc_after, pot_after);
  for (std::size_t i = 0; i < kNi; ++i) {
    EXPECT_EQ(acc_after[i], acc_before[i]) << i;
    EXPECT_EQ(pot_after[i], pot_before[i]) << i;
  }
}

TEST(SelfTest, DeterministicInSeed) {
  Grape5System a(small_system()), b(small_system());
  const auto ra = run_selftest(a);
  const auto rb = run_selftest(b);
  ASSERT_EQ(ra.boards.size(), rb.boards.size());
  for (std::size_t i = 0; i < ra.boards.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.boards[i].max_relative_error,
                     rb.boards[i].max_relative_error);
  }
}

TEST(Grape3Preset, LowerPrecisionHigherError) {
  // The GRAPE-3-class system self-test fails against the GRAPE-5
  // tolerance only if its error actually exceeds it; with a ~2 % pairwise
  // error averaging down over 512 sources, whole-force errors sit near
  // the threshold — use a custom config to check the ordering instead.
  SystemConfig g3 = SystemConfig::grape3_system();
  g3.board.jmem_capacity = 2048;
  Grape5System sys3(g3);
  Grape5System sys5(small_system());
  SelfTestConfig stc;
  stc.tolerance = 1.0;  // never fail; we only compare magnitudes
  const auto r3 = run_selftest(sys3, stc);
  const auto r5 = run_selftest(sys5, stc);
  EXPECT_GT(r3.boards[0].rms_relative_error,
            3.0 * r5.boards[0].rms_relative_error);
}

TEST(Grape3Preset, SystemShape) {
  const SystemConfig g3 = SystemConfig::grape3_system();
  EXPECT_EQ(g3.boards, 1u);
  EXPECT_EQ(g3.total_pipelines(), 8u);
  EXPECT_LT(g3.peak_flops(), SystemConfig::paper_system().peak_flops() / 10);
  EXPECT_EQ(g3.numerics.lns_frac_bits, 5);
  EXPECT_EQ(g3.numerics.position_bits, 20);
}

}  // namespace
