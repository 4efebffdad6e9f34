#include <gtest/gtest.h>

#include <vector>

#include "grape/board.hpp"
#include "grape/host_reference.hpp"
#include "ic/uniform.hpp"

namespace {

using namespace g5;
using grape::BoardConfig;
using grape::HostInterfaceConfig;
using grape::PipelineNumerics;
using grape::PipelineScaling;
using grape::ProcessorBoard;
using grape::Vec3d;

PipelineScaling scaling_for(double lo, double hi, double eps) {
  PipelineScaling s;
  s.range_lo = lo;
  s.range_hi = hi;
  s.eps = eps;
  s.force_quantum = 1e-10;
  s.potential_quantum = 1e-10;
  return s;
}

BoardConfig small_board() {
  BoardConfig cfg;
  cfg.jmem_capacity = 256;
  return cfg;
}

/// Run the board and add its read-out forces into acc/pot (partial sums
/// across calls, as a host accumulating board results would).
std::size_t add_forces(ProcessorBoard& board, const Vec3d* i_pos,
                       std::size_t ni, Vec3d* acc, double* pot) {
  std::vector<grape::RawForce> raw(ni);
  const std::size_t interactions = board.run_raw(i_pos, ni, raw.data());
  if (interactions == 0) return 0;
  for (std::size_t i = 0; i < ni; ++i) {
    Vec3d a;
    double p = 0.0;
    board.pipeline().convert_raw(raw[i], a, p);
    acc[i] += a;
    pot[i] += p;
  }
  return interactions;
}

TEST(ProcessorBoard, PaperBoardShape) {
  const BoardConfig cfg;
  EXPECT_EQ(cfg.pipelines(), 16u);
  EXPECT_EQ(cfg.i_slots(), 96u);
  EXPECT_EQ(cfg.jmem_capacity, 131072u);
}

TEST(ProcessorBoard, SegmentedUploads) {
  ProcessorBoard board(small_board(), HostInterfaceConfig{},
                       PipelineNumerics{});
  board.configure(scaling_for(-2.0, 2.0, 0.01));
  const auto src = ic::make_uniform_cube(100, -1.0, 1.0, 1.0, 3);
  // Upload in two segments at different addresses.
  board.set_j(0, src.pos().data(), src.mass().data(), 60);
  board.set_j(60, src.pos().data() + 60, src.mass().data() + 60, 40);
  EXPECT_EQ(board.j_count(), 100u);

  std::vector<Vec3d> acc(8), ref_acc(8);
  std::vector<double> pot(8), ref_pot(8);
  add_forces(board, src.pos().data(), 8, acc.data(), pot.data());
  grape::host_forces_on_targets(std::span<const Vec3d>(src.pos().data(), 8),
                                src.pos(), src.mass(), 0.01, ref_acc,
                                ref_pot);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_LT((acc[i] - ref_acc[i]).norm() / ref_acc[i].norm(), 0.02) << i;
  }
}

TEST(ProcessorBoard, CapacityEnforced) {
  ProcessorBoard board(small_board(), HostInterfaceConfig{},
                       PipelineNumerics{});
  board.configure(scaling_for(-2.0, 2.0, 0.0));
  const auto src = ic::make_uniform_cube(300, -1.0, 1.0, 1.0, 3);
  EXPECT_THROW(board.set_j(0, src.pos().data(), src.mass().data(), 257),
               std::out_of_range);
  EXPECT_THROW(board.set_j(200, src.pos().data(), src.mass().data(), 57),
               std::out_of_range);
  EXPECT_NO_THROW(board.set_j(0, src.pos().data(), src.mass().data(), 256));
  EXPECT_THROW(board.set_j_count(257), std::out_of_range);
}

TEST(ProcessorBoard, RunAccumulatesAcrossCalls) {
  // Partial j-sets: running twice with halves equals one run with all.
  ProcessorBoard board(small_board(), HostInterfaceConfig{},
                       PipelineNumerics{});
  board.configure(scaling_for(-2.0, 2.0, 0.02));
  const auto src = ic::make_uniform_cube(128, -1.0, 1.0, 1.0, 5);
  const Vec3d target = src.pos()[0];

  Vec3d acc_full{};
  double pot_full = 0.0;
  board.set_j(0, src.pos().data(), src.mass().data(), 128);
  add_forces(board, &target, 1, &acc_full, &pot_full);

  Vec3d acc_halves{};
  double pot_halves = 0.0;
  board.set_j_count(0);
  board.set_j(0, src.pos().data(), src.mass().data(), 64);
  add_forces(board, &target, 1, &acc_halves, &pot_halves);
  board.set_j_count(0);
  board.set_j(0, src.pos().data() + 64, src.mass().data() + 64, 64);
  add_forces(board, &target, 1, &acc_halves, &pot_halves);

  EXPECT_LT((acc_full - acc_halves).norm(), 1e-8 + 1e-9 * acc_full.norm());
  EXPECT_NEAR(pot_full, pot_halves, 1e-8);
}

TEST(ProcessorBoard, ConfigureDropsResidentJ) {
  ProcessorBoard board(small_board(), HostInterfaceConfig{},
                       PipelineNumerics{});
  board.configure(scaling_for(-2.0, 2.0, 0.0));
  const auto src = ic::make_uniform_cube(10, -1.0, 1.0, 1.0, 3);
  board.set_j(0, src.pos().data(), src.mass().data(), 10);
  EXPECT_EQ(board.j_count(), 10u);
  board.configure(scaling_for(-4.0, 4.0, 0.0));
  EXPECT_EQ(board.j_count(), 0u);
}

TEST(ProcessorBoard, HibMetersTraffic) {
  ProcessorBoard board(small_board(), HostInterfaceConfig{},
                       PipelineNumerics{});
  board.configure(scaling_for(-2.0, 2.0, 0.0));
  const auto src = ic::make_uniform_cube(50, -1.0, 1.0, 1.0, 3);
  board.set_j(0, src.pos().data(), src.mass().data(), 50);
  std::vector<Vec3d> acc(4);
  std::vector<double> pot(4);
  add_forces(board, src.pos().data(), 4, acc.data(), pot.data());
  const auto& hib = board.hib();
  EXPECT_EQ(hib.j_words(), 50u);
  EXPECT_EQ(hib.i_words(), 4u);
  EXPECT_EQ(hib.result_words(), 4u);
  const HostInterfaceConfig hc;
  EXPECT_EQ(hib.bytes_to_board(), 50 * hc.bytes_per_j + 4 * hc.bytes_per_i);
  EXPECT_EQ(hib.bytes_from_board(), 4 * hc.bytes_per_result);
  EXPECT_GT(hib.modeled_time(), 0.0);
}

TEST(ProcessorBoard, EmptyRunsAreNoOps) {
  ProcessorBoard board(small_board(), HostInterfaceConfig{},
                       PipelineNumerics{});
  board.configure(scaling_for(-2.0, 2.0, 0.0));
  Vec3d acc{};
  double pot = 0.0;
  const Vec3d target{0.5, 0.5, 0.5};
  EXPECT_EQ(add_forces(board, &target, 1, &acc, &pot), 0u);  // no j resident
  EXPECT_EQ(add_forces(board, &target, 0, &acc, &pot), 0u);  // no i requested
}

}  // namespace
