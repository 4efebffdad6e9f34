// The emulated boards: one particle memory block-sharded across B boards
// (docs/scaling.md), evaluated shard by shard on the system's Pipeline.
//
// The contracts pinned here:
//   * a board's shape and memory capacity, and that uploads replace the
//     resident set while compute_raw accumulates across them;
//   * shard_share is the single block-sharding rule, and set_j_particles
//     distributes ragged sets exactly as it predicts;
//   * capacity overruns raise JmemCapacityError with the requested and
//     aggregate capacity fields;
//   * the integer-domain reduction makes results bitwise-identical
//     across board counts AND chunk boundaries, for both backends;
//   * a list that fits the particle memory runs as one resident upload,
//     and charging its call shape to another device moves that device's
//     account and byte meter exactly as running it there would — ragged
//     shards with an empty board included.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "grape/driver.hpp"
#include "grape/system.hpp"
#include "grape_chunked.hpp"
#include "ic/uniform.hpp"

namespace {

using namespace g5;
using grape::BackendKind;
using grape::BoardConfig;
using grape::Grape5Device;
using grape::Grape5System;
using grape::HostInterfaceConfig;
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

/// Read the resident set's forces on `targets` out of `raw` (merged
/// over calls) and add them to acc/pot.
std::size_t add_forces(Grape5System& sys, std::span<const Vec3d> targets,
                       std::span<Vec3d> acc, std::span<double> pot) {
  std::vector<grape::RawForce> raw(targets.size());
  const std::size_t interactions = sys.compute_raw(targets, raw);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    Vec3d a;
    double p = 0.0;
    sys.pipeline().convert_raw(raw[i], a, p);
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

TEST(ProcessorBoard, CapacityEnforced) {
  Grape5System sys(small_config(1, 256));
  sys.set_range(-2.0, 2.0, 0.0, 1.0);
  const auto src = ic::make_uniform_cube(300, -1.0, 1.0, 1.0, 3);
  const std::span<const Vec3d> pos(src.pos());
  const std::span<const double> mass(src.mass());
  EXPECT_THROW(sys.set_j_particles(pos.first(257), mass.first(257)),
               std::out_of_range);
  EXPECT_NO_THROW(sys.set_j_particles(pos.first(256), mass.first(256)));
}

TEST(ProcessorBoard, RunAccumulatesAcrossCalls) {
  // Partial j-sets: running twice with halves equals one run with all.
  Grape5System sys(small_config(1, 256));
  sys.set_range(-2.0, 2.0, 0.02, 1.0);
  const auto src = ic::make_uniform_cube(128, -1.0, 1.0, 1.0, 5);
  const std::span<const Vec3d> pos(src.pos());
  const std::span<const double> mass(src.mass());
  const std::span<const Vec3d> target = pos.first(1);

  Vec3d acc_full{};
  double pot_full = 0.0;
  sys.set_j_particles(pos, mass);
  add_forces(sys, target, {&acc_full, 1}, {&pot_full, 1});

  Vec3d acc_halves{};
  double pot_halves = 0.0;
  sys.set_j_particles(pos.first(64), mass.first(64));
  add_forces(sys, target, {&acc_halves, 1}, {&pot_halves, 1});
  sys.set_j_particles(pos.subspan(64), mass.subspan(64));
  add_forces(sys, target, {&acc_halves, 1}, {&pot_halves, 1});

  EXPECT_LT((acc_full - acc_halves).norm(), 1e-8 + 1e-9 * acc_full.norm());
  EXPECT_NEAR(pot_full, pot_halves, 1e-8);
}

TEST(ProcessorBoard, ConfigureDropsResidentJ) {
  Grape5System sys(small_config(1, 256));
  sys.set_range(-2.0, 2.0, 0.0, 1.0);
  const auto src = ic::make_uniform_cube(10, -1.0, 1.0, 1.0, 3);
  sys.set_j_particles(src.pos(), src.mass());
  EXPECT_EQ(sys.resident_j(), 10u);
  sys.set_range(-4.0, 4.0, 0.0, 1.0);
  EXPECT_EQ(sys.resident_j(), 0u);
}

TEST(ProcessorBoard, EmptyRunsAreNoOps) {
  Grape5System sys(small_config(1, 256));
  sys.set_range(-2.0, 2.0, 0.0, 1.0);
  Vec3d acc{};
  double pot = 0.0;
  const Vec3d target{0.5, 0.5, 0.5};
  // No j resident, then no i requested.
  EXPECT_EQ(add_forces(sys, {&target, 1}, {&acc, 1}, {&pot, 1}), 0u);
  EXPECT_EQ(add_forces(sys, {}, {}, {}), 0u);
  EXPECT_EQ(sys.account().force_calls, 0u);
  EXPECT_EQ(sys.bytes_moved(), 0u);
}

TEST(BoardSet, RaggedUploadFollowsShardShare) {
  // nj = 10 over B = 4: shares of ceil(10/4) = 3 -> {3, 3, 3, 1}.
  const auto src = ic::make_uniform_cube(10, -1.0, 1.0, 1.0, 5);
  Grape5System sys(small_config(4, 16));
  sys.set_range(-2.0, 2.0, 0.01, 0.1);
  sys.set_j_particles(src.pos(), src.mass());

  EXPECT_EQ(sys.board_count(), 4u);
  EXPECT_EQ(sys.resident_j(), 10u);
  EXPECT_EQ(sys.board_j(0), 3u);
  EXPECT_EQ(sys.board_j(1), 3u);
  EXPECT_EQ(sys.board_j(2), 3u);
  EXPECT_EQ(sys.board_j(3), 1u);
}

TEST(BoardSet, UploadAtExactCapacitySucceeds) {
  const auto src = ic::make_uniform_cube(64, -1.0, 1.0, 1.0, 11);
  Grape5System sys(small_config(2, 32));
  sys.set_range(-2.0, 2.0, 0.01, 1.0 / 64.0);
  EXPECT_NO_THROW(sys.set_j_particles(src.pos(), src.mass()));
  EXPECT_EQ(sys.board_j(0), 32u);
  EXPECT_EQ(sys.board_j(1), 32u);
}

TEST(BoardSet, AggregateOverCapacityThrowsTypedError) {
  const auto src = ic::make_uniform_cube(65, -1.0, 1.0, 1.0, 11);
  Grape5System sys(small_config(2, 32));
  sys.set_range(-2.0, 2.0, 0.01, 1.0 / 65.0);
  try {
    sys.set_j_particles(src.pos(), src.mass());
    FAIL() << "expected JmemCapacityError";
  } catch (const JmemCapacityError& e) {
    EXPECT_EQ(e.requested(), 65u);
    EXPECT_EQ(e.capacity(), 64u);
  }
  // The historical contract still holds for callers catching the base.
  EXPECT_THROW(sys.set_j_particles(src.pos(), src.mass()), std::out_of_range);
}

TEST(BoardSet, RaggedShardBytesMatchChargedCall) {
  // nj = 5 over B = 4 shards as {2, 2, 1, 0}: the j words go up once,
  // and each of the three loaded boards takes the 7 i-particles up and
  // sends 7 results back; the empty board moves nothing. Charging the
  // same call shape moves the same bytes.
  const auto src = ic::make_uniform_cube(12, -1.0, 1.0, 1.0, 41);
  const std::span<const Vec3d> pos(src.pos());
  const std::span<const double> mass(src.mass());
  const HostInterfaceConfig hib;
  const std::uint64_t expected =
      5 * hib.bytes_per_j + 3 * 7 * (hib.bytes_per_i + hib.bytes_per_result);
  ASSERT_EQ(expected, 668u);

  Grape5System run(small_config(4, 16));
  run.set_range(-2.0, 2.0, 0.01, 1.0 / 12.0);
  run.set_j_particles(pos.first(5), mass.first(5));
  EXPECT_EQ(run.board_j(3), 0u);
  std::vector<grape::RawForce> raw(7);
  EXPECT_EQ(run.compute_raw(pos.subspan(5, 7), raw), 35u);
  EXPECT_EQ(run.bytes_moved(), expected);

  Grape5System charged(small_config(4, 16));
  charged.set_range(-2.0, 2.0, 0.01, 1.0 / 12.0);
  charged.charge_call(5, 7);
  EXPECT_EQ(charged.bytes_moved(), expected);
  EXPECT_EQ(charged.account().j_uploaded, run.account().j_uploaded);
  EXPECT_EQ(charged.account().interactions, run.account().interactions);
}

/// Forces with a given board count, on a fresh system; `nj_cap` sets the
/// per-board memory so the whole set stays resident.
void forces_with_boards(const model::ParticleSet& src, std::size_t boards,
                        BackendKind backend, std::size_t ni,
                        double mass_scale, std::vector<Vec3d>& acc,
                        std::vector<double>& pot) {
  Grape5System sys(small_config(boards, 4096, backend));
  sys.set_range(-2.0, 2.0, 0.02, mass_scale);
  sys.set_j_particles(src.pos(), src.mass());
  acc.assign(ni, Vec3d{});
  pot.assign(ni, 0.0);
  std::vector<grape::RawForce> raw(ni);
  sys.compute_raw(std::span<const Vec3d>(src.pos().data(), ni), raw);
  for (std::size_t i = 0; i < ni; ++i) {
    sys.pipeline().convert_raw(raw[i], acc[i], pot[i]);
  }
}

class BoardSetBackend : public ::testing::TestWithParam<BackendKind> {};

TEST_P(BoardSetBackend, BoardCountIsBitwiseInvariant) {
  // The tentpole determinism claim: the integer-domain reduction makes
  // B = 1, 3 and 4 produce byte-identical forces (not merely close).
  // 333 over 4 boards also exercises a ragged final shard. With the
  // cube's total mass as the mass scale every shard takes the tile sums;
  // with one particle's mass every shard streams far more than that and
  // takes the block drain.
  const auto src = ic::make_uniform_cube(333, -1.0, 1.0, 1.0, 7);
  constexpr std::size_t kNi = 48;
  std::vector<Vec3d> acc1, accb;
  std::vector<double> pot1, potb;
  for (const double mass_scale : {1.0, src.mass()[0]}) {
    forces_with_boards(src, 1, GetParam(), kNi, mass_scale, acc1, pot1);
    for (const std::size_t boards : {3u, 4u}) {
      forces_with_boards(src, boards, GetParam(), kNi, mass_scale, accb, potb);
      for (std::size_t i = 0; i < kNi; ++i) {
        EXPECT_EQ(acc1[i].x, accb[i].x) << "B=" << boards << " i=" << i;
        EXPECT_EQ(acc1[i].y, accb[i].y) << "B=" << boards << " i=" << i;
        EXPECT_EQ(acc1[i].z, accb[i].z) << "B=" << boards << " i=" << i;
        EXPECT_EQ(pot1[i], potb[i]) << "B=" << boards << " i=" << i;
      }
    }
  }
}

TEST_P(BoardSetBackend, ChunkedEvaluationIsBitwiseInvariant) {
  // Same j-list through one resident upload vs forced host-side
  // chunking (tiny particle memory): the driver accumulates raw counts
  // across chunks, so the chunk seams must not show either. Both on the
  // cube's total mass as the mass scale (every call takes the tile sums)
  // and on one particle's mass (every call drains).
  const auto src = ic::make_uniform_cube(300, -1.0, 1.0, 1.0, 17);
  constexpr std::size_t kNi = 32;
  const std::span<const Vec3d> targets(src.pos().data(), kNi);

  for (const double mass_scale : {1.0, src.mass()[0]}) {
    Grape5Device resident(small_config(2, 4096, GetParam()));
    resident.set_range(-2.0, 2.0, mass_scale);
    resident.set_eps(0.02);
    std::vector<Vec3d> acc_res(kNi);
    std::vector<double> pot_res(kNi);
    testutil::chunked_forces(resident.system(), targets, src.pos(),
                             src.mass(), acc_res, pot_res);

    // cap 64 -> 5 chunks
    Grape5Device chunked(small_config(2, 32, GetParam()));
    chunked.set_range(-2.0, 2.0, mass_scale);
    chunked.set_eps(0.02);
    std::vector<Vec3d> acc_chk(kNi);
    std::vector<double> pot_chk(kNi);
    testutil::chunked_forces(chunked.system(), targets, src.pos(), src.mass(),
                             acc_chk, pot_chk);

    for (std::size_t i = 0; i < kNi; ++i) {
      EXPECT_EQ(acc_res[i].x, acc_chk[i].x) << mass_scale << " " << i;
      EXPECT_EQ(acc_res[i].y, acc_chk[i].y) << mass_scale << " " << i;
      EXPECT_EQ(acc_res[i].z, acc_chk[i].z) << mass_scale << " " << i;
      EXPECT_EQ(pot_res[i], pot_chk[i]) << mass_scale << " " << i;
    }
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
  EXPECT_FALSE(testutil::chunked_forces(device.system(), targets, src.pos(),
                                        src.mass(), acc, pot));
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
  charged.set_range(-2.0, 2.0, src.mass()[0]);
  charged.set_eps(0.02);
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
  EXPECT_EQ(sys.board_j(0), 0u);
}

}  // namespace
