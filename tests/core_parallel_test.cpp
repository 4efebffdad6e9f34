// Parallel group walks must be bitwise-identical to the serial path: every
// particle/group writes only its own outputs, so lane assignment cannot
// change a single bit of acc/pot, and the per-lane WalkStats reduce to the
// same totals. Exercised on a smooth Plummer sphere and an adversarially
// clustered snapshot, for both host tree modes and the GRAPE tree engine;
// the GRAPE engines are also checked across board counts, for both
// backends, and for the GRAPE device account their lanes fold into.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engines.hpp"
#include "grape/driver.hpp"
#include "ic/plummer.hpp"
#include "tree/walk.hpp"

namespace {

using namespace g5;
using core::ForceParams;

/// Tight knots of near-coincident bodies embedded in a sparse halo — deep
/// tree, wildly uneven group costs (the scheduler's worst case).
model::ParticleSet clustered_set(std::size_t n) {
  model::ParticleSet pset;
  pset.reserve(n);
  const double m = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    if (i % 3 == 0) {
      // Knot near the far corner; spacing below float resolution.
      pset.add({1.0 - 1e-12 * t, 1.0 - 2e-12 * t, 1.0 + 1e-12 * t}, {}, m);
    } else {
      pset.add({std::cos(0.1 * t), std::sin(0.2 * t), std::cos(0.3 * t)}, {},
               m);
    }
  }
  return pset;
}

void expect_bitwise_equal(const model::ParticleSet& a,
                          const model::ParticleSet& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.acc()[i], b.acc()[i]) << what << " particle " << i;
    ASSERT_EQ(a.pot()[i], b.pot()[i]) << what << " particle " << i;
  }
}

/// Run `name` over `base` with the given thread count; also return stats.
model::ParticleSet run_engine(const char* name, const model::ParticleSet& base,
                              std::uint32_t threads,
                              core::EngineStats* stats = nullptr) {
  ForceParams fp{.eps = 0.02, .theta = 0.7, .n_crit = 32, .leaf_max = 4};
  fp.threads = threads;
  auto engine = core::make_engine(name, fp);
  model::ParticleSet pset = base;
  engine->compute(pset);
  if (stats) *stats = engine->stats();
  return pset;
}

class ParallelBitwise : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelBitwise, PlummerForcesMatchSerial) {
  const auto base = ic::make_plummer(ic::PlummerConfig{.n = 1500, .seed = 9});
  core::EngineStats s1, s2, s8;
  const auto serial = run_engine(GetParam(), base, 1, &s1);
  const auto two = run_engine(GetParam(), base, 2, &s2);
  const auto eight = run_engine(GetParam(), base, 8, &s8);
  expect_bitwise_equal(serial, two, "2 threads");
  expect_bitwise_equal(serial, eight, "8 threads");
  // The reduced walk statistics are thread-count invariant too.
  for (const auto* s : {&s2, &s8}) {
    EXPECT_EQ(s->walk.lists, s1.walk.lists);
    EXPECT_EQ(s->walk.interactions, s1.walk.interactions);
    EXPECT_EQ(s->walk.list_entries, s1.walk.list_entries);
    EXPECT_EQ(s->walk.nodes_visited, s1.walk.nodes_visited);
    EXPECT_EQ(s->walk.max_list, s1.walk.max_list);
    EXPECT_EQ(s->interactions, s1.interactions);
    EXPECT_EQ(s->groups, s1.groups);
  }
}

TEST_P(ParallelBitwise, ClusteredForcesMatchSerial) {
  const auto base = clustered_set(900);
  const auto serial = run_engine(GetParam(), base, 1);
  expect_bitwise_equal(serial, run_engine(GetParam(), base, 2), "2 threads");
  expect_bitwise_equal(serial, run_engine(GetParam(), base, 8), "8 threads");
}

INSTANTIATE_TEST_SUITE_P(Engines, ParallelBitwise,
                         ::testing::Values("host-tree-original",
                                           "host-tree-modified",
                                           "grape-tree", "grape-direct"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ParallelBitwise, TargetSubsetMatchesSerial) {
  const auto base = ic::make_plummer(ic::PlummerConfig{.n = 600, .seed = 21});
  std::vector<std::uint32_t> targets;
  for (std::uint32_t t = 0; t < base.size(); t += 3) targets.push_back(t);
  for (const char* name : {"host-tree-modified", "grape-tree"}) {
    auto run = [&](std::uint32_t threads) {
      ForceParams fp{.eps = 0.02, .theta = 0.7, .n_crit = 32};
      fp.threads = threads;
      auto engine = core::make_engine(name, fp);
      model::ParticleSet pset = base;
      engine->compute_targets(pset, targets);
      return pset;
    };
    const auto serial = run(1);
    expect_bitwise_equal(serial, run(4), name);
  }
}

/// Everything a GRAPE engine reports after one force phase.
struct GrapeRun {
  model::ParticleSet pset;
  core::EngineStats stats;
  grape::HardwareAccount account;
  std::uint64_t bytes = 0;
  bool saturated = false;
};

GrapeRun run_grape(const char* name, grape::BackendKind backend,
                   const model::ParticleSet& base, bool targets,
                   std::uint32_t threads, std::uint32_t boards) {
  ForceParams fp{.eps = 0.02, .theta = 0.7, .n_crit = 32};
  fp.threads = threads;
  fp.backend = backend;
  fp.boards = boards;
  auto engine = core::make_engine(name, fp);
  GrapeRun r{base, {}, {}, 0, false};
  if (targets) {
    std::vector<std::uint32_t> subset;
    for (std::uint32_t t = 1; t < base.size(); t += 3) subset.push_back(t);
    engine->compute_targets(r.pset, subset);
  } else {
    engine->compute(r.pset);
  }
  r.stats = engine->stats();
  const grape::Grape5System& sys = engine->grape_device()->system();
  r.account = sys.account();
  r.bytes = sys.bytes_moved();
  r.saturated = sys.any_saturation();
  return r;
}

void expect_same_counts(const core::EngineStats& a, const core::EngineStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.evaluations, b.evaluations) << what;
  EXPECT_EQ(a.interactions, b.interactions) << what;
  EXPECT_EQ(a.groups, b.groups) << what;
  EXPECT_EQ(a.walk.lists, b.walk.lists) << what;
  EXPECT_EQ(a.walk.list_entries, b.walk.list_entries) << what;
  EXPECT_EQ(a.walk.interactions, b.walk.interactions) << what;
  EXPECT_EQ(a.walk.max_list, b.walk.max_list) << what;
}

/// Counts and modeled doubles bitwise; only emulation_wall may differ.
void expect_same_account(const GrapeRun& a, const GrapeRun& b,
                         const std::string& what) {
  EXPECT_EQ(a.account.force_calls, b.account.force_calls) << what;
  EXPECT_EQ(a.account.interactions, b.account.interactions) << what;
  EXPECT_EQ(a.account.i_processed, b.account.i_processed) << what;
  EXPECT_EQ(a.account.j_uploaded, b.account.j_uploaded) << what;
  EXPECT_EQ(a.account.vmp_slots, b.account.vmp_slots) << what;
  EXPECT_EQ(a.account.modeled_dma_j, b.account.modeled_dma_j) << what;
  EXPECT_EQ(a.account.modeled_dma_i, b.account.modeled_dma_i) << what;
  EXPECT_EQ(a.account.modeled_compute, b.account.modeled_compute) << what;
  EXPECT_EQ(a.account.modeled_dma_result, b.account.modeled_dma_result)
      << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.saturated, b.saturated) << what;
}

TEST(ParallelBitwise, GrapeLanesMatchAcrossThreadsAndBoards) {
  // Forces, engine counts and the device account, meters and saturation
  // latch are identical for every thread count at a given board count.
  // Across board counts the engine counts always match (the timing
  // model itself charges per board, so the account does not), and so
  // do the bit-exact forces. Native forces are not yet board-invariant
  // at engine scale: FixedAccumulator::add sums in double, which is
  // exact only below 2^53 counts (ROADMAP item 1).
  const auto base = ic::make_plummer(ic::PlummerConfig{.n = 600, .seed = 17});
  struct Case {
    const char* engine;
    grape::BackendKind backend;
  };
  const Case cases[] = {{"grape-tree", grape::BackendKind::BitExact},
                        {"grape-tree", grape::BackendKind::Native},
                        {"grape-direct", grape::BackendKind::BitExact}};
  for (const Case& c : cases) {
    for (const bool targets : {false, true}) {
      const GrapeRun ref = run_grape(c.engine, c.backend, base, targets, 1, 1);
      for (const std::uint32_t boards : {1u, 3u}) {
        const GrapeRun lane1 =
            run_grape(c.engine, c.backend, base, targets, 1, boards);
        for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
          const std::string what =
              std::string(c.engine) + " " +
              std::string(grape::backend_name(c.backend)) +
              (targets ? " targets" : " compute") +
              " threads=" + std::to_string(threads) +
              " boards=" + std::to_string(boards);
          const GrapeRun got =
              run_grape(c.engine, c.backend, base, targets, threads, boards);
          expect_bitwise_equal(lane1.pset, got.pset, what.c_str());
          if (c.backend == grape::BackendKind::BitExact) {
            expect_bitwise_equal(ref.pset, got.pset, what.c_str());
          }
          expect_same_counts(ref.stats, got.stats, what);
          expect_same_account(lane1, got, what);
        }
      }
    }
  }
}

TEST(GrapeLanes, NativeSaturationOnWorkerLaneLatchesEngineDevice) {
  // Native's accumulators saturate from N ~ 6k on a Plummer sphere; the
  // lanes that hit the rail must latch the engine device's flag, exactly
  // as the single-lane run does.
  const auto base =
      ic::make_plummer(ic::PlummerConfig{.n = 16384, .seed = 5});
  const GrapeRun serial = run_grape(
      "grape-tree", grape::BackendKind::Native, base, false, 1, 0);
  const GrapeRun lanes = run_grape(
      "grape-tree", grape::BackendKind::Native, base, false, 8, 0);
  EXPECT_TRUE(serial.saturated);
  EXPECT_TRUE(lanes.saturated);
  expect_same_account(serial, lanes, "native 16k");
  expect_bitwise_equal(serial.pset, lanes.pset, "native 16k");
}

/// GRAPE list kernel whose worker lanes hand their device a malformed
/// j-list while armed, so the device throws on a worker lane.
class WorkerFaultKernel final : public core::ListKernel {
 public:
  explicit WorkerFaultKernel(std::shared_ptr<grape::Grape5Device> device)
      : inner_(std::move(device)) {}
  void begin_phase(const model::ParticleSet& pset, double eps, unsigned lanes,
                   std::size_t units) override {
    inner_.begin_phase(pset, eps, lanes, units);
  }
  void evaluate(unsigned lane, std::size_t unit,
                const tree::InteractionList& list,
                std::span<const math::Vec3d> targets,
                std::span<const double> self_mass, std::span<math::Vec3d> acc,
                std::span<double> pot) override {
    if (armed && lane != 0) {
      const std::span<const double> short_mass(list.mass.data(),
                                               list.mass.size() - 1);
      inner_.evaluate_j(lane, unit, list.pos, short_mass, targets, acc, pot);
    }
    inner_.evaluate(lane, unit, list, targets, self_mass, acc, pot);
  }
  void end_phase() override { inner_.end_phase(); }
  [[nodiscard]] grape::Grape5Device* device() const noexcept override {
    return inner_.device();
  }

  bool armed = true;

 private:
  core::GrapeListKernel inner_;
};

TEST(GrapeLanes, WorkerLaneDeviceErrorPropagatesAndEngineRecovers) {
  const auto base = ic::make_plummer(ic::PlummerConfig{.n = 2048, .seed = 7});
  // Same parameters as run_grape, so a fresh engine is the reference.
  ForceParams fp{.eps = 0.02, .theta = 0.7, .n_crit = 32};
  fp.threads = 4;
  auto device = std::make_shared<grape::Grape5Device>(
      grape::SystemConfig::paper_system());
  auto kernel = std::make_unique<WorkerFaultKernel>(device);
  WorkerFaultKernel* fault = kernel.get();
  core::TreeEngine engine(fp, core::TreeEngine::Mode::Modified,
                          std::move(kernel));

  model::ParticleSet failed = base;
  EXPECT_THROW(engine.compute(failed), std::invalid_argument);

  // The abandoned phase charged nothing; the next phase runs clean and
  // matches a fresh engine bitwise, account included.
  fault->armed = false;
  model::ParticleSet pset = base;
  engine.compute(pset);
  const GrapeRun fresh =
      run_grape("grape-tree", grape::BackendKind::BitExact, base, false, 4, 0);
  expect_bitwise_equal(fresh.pset, pset, "after a worker-lane error");
  GrapeRun recovered{pset, engine.stats(), device->system().account(),
                     device->system().bytes_moved(),
                     device->system().any_saturation()};
  expect_same_account(fresh, recovered, "after a worker-lane error");
}

TEST(WalkStatsMerge, SumsCountersAndMaxesMaxList) {
  tree::WalkStats a;
  a.lists = 3;
  a.interactions = 100;
  a.list_entries = 40;
  a.node_terms = 25;
  a.particle_terms = 15;
  a.nodes_visited = 90;
  a.max_list = 17;
  tree::WalkStats b;
  b.lists = 2;
  b.interactions = 50;
  b.list_entries = 30;
  b.node_terms = 10;
  b.particle_terms = 20;
  b.nodes_visited = 60;
  b.max_list = 29;

  tree::WalkStats m = a;
  m.merge(b);
  EXPECT_EQ(m.lists, 5u);
  EXPECT_EQ(m.interactions, 150u);
  EXPECT_EQ(m.list_entries, 70u);
  EXPECT_EQ(m.node_terms, 35u);
  EXPECT_EQ(m.particle_terms, 35u);
  EXPECT_EQ(m.nodes_visited, 150u);
  EXPECT_EQ(m.max_list, 29u);  // max, not sum

  // The larger side's max_list survives in either merge order.
  tree::WalkStats r = b;
  r.merge(a);
  EXPECT_EQ(r.max_list, 29u);
  // Merging an empty stats object is the identity.
  tree::WalkStats id = m;
  id.merge(tree::WalkStats{});
  EXPECT_EQ(id.max_list, m.max_list);
  EXPECT_EQ(id.interactions, m.interactions);
  EXPECT_EQ(id.lists, m.lists);
}

}  // namespace
