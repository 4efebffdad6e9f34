// BoardSet: j-sharding across B emulated boards (docs/scaling.md).
//
// The contracts pinned here:
//   * shard_share is the single block-sharding rule, and upload()
//     distributes ragged sets exactly as it predicts;
//   * capacity overruns raise JmemCapacityError with the offending
//     board / requested / capacity fields (aggregate checks use
//     kAggregate);
//   * the integer-domain reduction makes results bitwise-identical
//     across board counts AND chunk boundaries, for both backends;
//   * a list that fits the particle memory runs as one resident upload,
//     and charging its call shape to another device moves that device's
//     account and meters exactly as running it there would.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "grape/board_set.hpp"
#include "grape/driver.hpp"
#include "grape/system.hpp"
#include "ic/uniform.hpp"

namespace {

using namespace g5;
using grape::BackendKind;
using grape::BoardSet;
using grape::Grape5Device;
using grape::Grape5System;
using grape::JmemCapacityError;
using grape::SystemConfig;
using grape::Vec3d;

SystemConfig small_config(std::size_t boards, std::size_t jmem,
                          BackendKind backend = BackendKind::BitExact) {
  SystemConfig cfg;
  cfg.boards = boards;
  cfg.board.jmem_capacity = jmem;
  cfg.numerics.backend = backend;
  return cfg;
}

// The sharding rule itself is a compile-time function.
static_assert(grape::shard_share(10, 4) == 3);
static_assert(grape::shard_share(12, 4) == 3);
static_assert(grape::shard_share(1, 4) == 1);
static_assert(grape::shard_share(0, 4) == 0);
static_assert(grape::shard_share(7, 1) == 7);

TEST(BoardSet, RaggedUploadFollowsShardShare) {
  // nj = 10 over B = 4: shares of ceil(10/4) = 3 -> {3, 3, 3, 1}.
  const auto src = ic::make_uniform_cube(10, -1.0, 1.0, 1.0, 5);
  Grape5System sys(small_config(4, 16));
  sys.set_range(-2.0, 2.0, 0.01, 0.1);
  sys.set_j_particles(src.pos(), src.mass());

  BoardSet& set = sys.board_set();
  EXPECT_EQ(set.size(), 4u);
  EXPECT_EQ(set.resident_j(), 10u);
  EXPECT_EQ(set.board_j(0), 3u);
  EXPECT_EQ(set.board_j(1), 3u);
  EXPECT_EQ(set.board_j(2), 3u);
  EXPECT_EQ(set.board_j(3), 1u);
  EXPECT_EQ(set.board(3).j_count(), 1u);
}

TEST(BoardSet, UploadAtExactCapacitySucceeds) {
  const auto src = ic::make_uniform_cube(64, -1.0, 1.0, 1.0, 11);
  Grape5System sys(small_config(2, 32));
  sys.set_range(-2.0, 2.0, 0.01, 1.0 / 64.0);
  EXPECT_NO_THROW(sys.set_j_particles(src.pos(), src.mass()));
  EXPECT_EQ(sys.board_set().board_j(0), 32u);
  EXPECT_EQ(sys.board_set().board_j(1), 32u);
}

TEST(BoardSet, AggregateOverCapacityThrowsTypedError) {
  const auto src = ic::make_uniform_cube(65, -1.0, 1.0, 1.0, 11);
  Grape5System sys(small_config(2, 32));
  sys.set_range(-2.0, 2.0, 0.01, 1.0 / 65.0);
  try {
    sys.set_j_particles(src.pos(), src.mass());
    FAIL() << "expected JmemCapacityError";
  } catch (const JmemCapacityError& e) {
    EXPECT_EQ(e.board(), JmemCapacityError::kAggregate);
    EXPECT_EQ(e.requested(), 65u);
    EXPECT_EQ(e.capacity(), 64u);
  }
  // The historical contract still holds for callers catching the base.
  EXPECT_THROW(sys.set_j_particles(src.pos(), src.mass()), std::out_of_range);
}

TEST(BoardSet, SingleBoardOverCapacityReportsBoardIndex) {
  const auto src = ic::make_uniform_cube(40, -1.0, 1.0, 1.0, 13);
  Grape5System sys(small_config(2, 32));
  sys.set_range(-2.0, 2.0, 0.01, 1.0 / 40.0);
  try {
    sys.board(1).set_j(0, src.pos().data(), src.mass().data(), 40);
    FAIL() << "expected JmemCapacityError";
  } catch (const JmemCapacityError& e) {
    EXPECT_EQ(e.board(), 1u);
    EXPECT_EQ(e.requested(), 40u);
    EXPECT_EQ(e.capacity(), 32u);
  }
}

/// Forces with a given board count, on a fresh system; `nj_cap` sets the
/// per-board memory so the whole set stays resident.
void forces_with_boards(const model::ParticleSet& src, std::size_t boards,
                        BackendKind backend, std::size_t ni,
                        std::vector<Vec3d>& acc, std::vector<double>& pot) {
  Grape5System sys(small_config(boards, 4096, backend));
  sys.set_range(-2.0, 2.0, 0.02, src.mass()[0]);
  sys.set_j_particles(src.pos(), src.mass());
  acc.assign(ni, Vec3d{});
  pot.assign(ni, 0.0);
  sys.compute(std::span<const Vec3d>(src.pos().data(), ni), acc, pot);
}

class BoardSetBackend : public ::testing::TestWithParam<BackendKind> {};

TEST_P(BoardSetBackend, BoardCountIsBitwiseInvariant) {
  // The tentpole determinism claim: the integer-domain reduction makes
  // B = 1, 3 and 4 produce byte-identical forces (not merely close).
  // 333 over 4 boards also exercises a ragged final shard.
  const auto src = ic::make_uniform_cube(333, -1.0, 1.0, 1.0, 7);
  constexpr std::size_t kNi = 48;
  std::vector<Vec3d> acc1, accb;
  std::vector<double> pot1, potb;
  forces_with_boards(src, 1, GetParam(), kNi, acc1, pot1);
  for (const std::size_t boards : {3u, 4u}) {
    forces_with_boards(src, boards, GetParam(), kNi, accb, potb);
    for (std::size_t i = 0; i < kNi; ++i) {
      EXPECT_EQ(acc1[i].x, accb[i].x) << "B=" << boards << " i=" << i;
      EXPECT_EQ(acc1[i].y, accb[i].y) << "B=" << boards << " i=" << i;
      EXPECT_EQ(acc1[i].z, accb[i].z) << "B=" << boards << " i=" << i;
      EXPECT_EQ(pot1[i], potb[i]) << "B=" << boards << " i=" << i;
    }
  }
}

TEST_P(BoardSetBackend, ChunkedEvaluationIsBitwiseInvariant) {
  // Same j-list through one resident upload vs forced host-side
  // chunking (tiny particle memory): the driver accumulates raw counts
  // across chunks, so the chunk seams must not show either.
  const auto src = ic::make_uniform_cube(300, -1.0, 1.0, 1.0, 17);
  constexpr std::size_t kNi = 32;
  const std::span<const Vec3d> targets(src.pos().data(), kNi);

  Grape5Device resident(small_config(2, 4096, GetParam()));
  resident.set_range(-2.0, 2.0, src.mass()[0]);
  resident.set_eps(0.02);
  std::vector<Vec3d> acc_res(kNi);
  std::vector<double> pot_res(kNi);
  resident.compute_forces_chunked(targets, src.pos(), src.mass(), acc_res,
                                  pot_res);

  Grape5Device chunked(small_config(2, 32, GetParam()));  // cap 64 -> 5 chunks
  chunked.set_range(-2.0, 2.0, src.mass()[0]);
  chunked.set_eps(0.02);
  std::vector<Vec3d> acc_chk(kNi);
  std::vector<double> pot_chk(kNi);
  chunked.compute_forces_chunked(targets, src.pos(), src.mass(), acc_chk,
                                 pot_chk);

  for (std::size_t i = 0; i < kNi; ++i) {
    EXPECT_EQ(acc_res[i].x, acc_chk[i].x) << i;
    EXPECT_EQ(acc_res[i].y, acc_chk[i].y) << i;
    EXPECT_EQ(acc_res[i].z, acc_chk[i].z) << i;
    EXPECT_EQ(pot_res[i], pot_chk[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, BoardSetBackend,
                         ::testing::Values(BackendKind::BitExact,
                                           BackendKind::Native),
                         [](const auto& info) {
                           return info.param == BackendKind::Native
                                      ? "Native"
                                      : "BitExact";
                         });

TEST(BoardSet, ResidentJobWithinCapacityRuns) {
  // A list within the aggregate particle memory streams as one resident
  // upload and matches set_j + compute_forces bitwise; charging the same
  // call shape to a second device reproduces the account and the meters.
  const auto src = ic::make_uniform_cube(60, -1.0, 1.0, 1.0, 31);
  constexpr std::size_t kNi = 8;
  const std::span<const Vec3d> targets(src.pos().data(), kNi);

  Grape5Device device(small_config(2, 32));
  device.set_range(-2.0, 2.0, src.mass()[0]);
  device.set_eps(0.02);
  std::vector<Vec3d> acc(kNi);
  std::vector<double> pot(kNi);
  EXPECT_FALSE(
      device.compute_forces_chunked(targets, src.pos(), src.mass(), acc, pot));
  const auto& account = device.system().account();
  EXPECT_EQ(account.force_calls, 1u);
  EXPECT_EQ(account.j_uploaded, 60u);
  EXPECT_EQ(account.interactions, 60u * kNi);

  Grape5Device reference(small_config(2, 32));
  reference.set_range(-2.0, 2.0, src.mass()[0]);
  reference.set_eps(0.02);
  reference.set_j(src.pos(), src.mass());
  std::vector<Vec3d> ref_acc(kNi);
  std::vector<double> ref_pot(kNi);
  reference.compute_forces(targets, ref_acc, ref_pot);
  for (std::size_t i = 0; i < kNi; ++i) {
    EXPECT_EQ(acc[i], ref_acc[i]) << i;
    EXPECT_EQ(pot[i], ref_pot[i]) << i;
  }

  Grape5Device charged(small_config(2, 32));
  charged.configure_like(device);
  charged.charge_chunked(kNi, src.size(), account.emulation_wall, false);
  const auto& got = charged.system().account();
  EXPECT_EQ(got.force_calls, account.force_calls);
  EXPECT_EQ(got.j_uploaded, account.j_uploaded);
  EXPECT_EQ(got.interactions, account.interactions);
  EXPECT_EQ(got.i_processed, account.i_processed);
  EXPECT_EQ(got.vmp_slots, account.vmp_slots);
  EXPECT_EQ(got.modeled_dma_j, account.modeled_dma_j);
  EXPECT_EQ(got.modeled_dma_i, account.modeled_dma_i);
  EXPECT_EQ(got.modeled_compute, account.modeled_compute);
  EXPECT_EQ(got.modeled_dma_result, account.modeled_dma_result);
  EXPECT_EQ(got.emulation_wall, account.emulation_wall);
  EXPECT_EQ(charged.system().bytes_moved(), device.system().bytes_moved());
  EXPECT_FALSE(charged.system().any_saturation());
  charged.charge_chunked(kNi, src.size(), 0.0, true);
  EXPECT_TRUE(charged.system().any_saturation());
}

TEST(BoardSet, ConfigureDropsResidentShards) {
  const auto src = ic::make_uniform_cube(20, -1.0, 1.0, 1.0, 37);
  Grape5System sys(small_config(2, 32));
  sys.set_range(-2.0, 2.0, 0.01, 1.0 / 20.0);
  sys.set_j_particles(src.pos(), src.mass());
  EXPECT_EQ(sys.resident_j(), 20u);
  // A new window invalidates the stored words; the set must be empty.
  sys.set_range(-4.0, 4.0, 0.01, 1.0 / 20.0);
  EXPECT_EQ(sys.resident_j(), 0u);
  EXPECT_EQ(sys.board_set().board_j(0), 0u);
}

}  // namespace
