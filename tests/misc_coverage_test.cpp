// Edge cases and small API surfaces not covered elsewhere.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/engines.hpp"
#include "core/render.hpp"
#include "core/snapshot.hpp"
#include "grape/selftest.hpp"
#include "ic/plummer.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

using namespace g5;
using math::Vec3d;

TEST(SnapshotAscii, ContentParsesBack) {
  model::ParticleSet p;
  p.add(Vec3d{1.5, -2.5, 3.5}, Vec3d{0.1, 0.2, 0.3}, 4.5);
  const auto path =
      (std::filesystem::temp_directory_path() / "g5_ascii_check.txt").string();
  core::write_snapshot_ascii(path, p, 7.0);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header 1
  EXPECT_NE(line.find("n=1"), std::string::npos);
  std::getline(in, line);  // header 2
  std::getline(in, line);  // data row
  std::istringstream row(line);
  unsigned long long id;
  double x, y, z, vx, vy, vz, m;
  row >> id >> x >> y >> z >> vx >> vy >> vz >> m;
  EXPECT_EQ(id, 0u);
  EXPECT_DOUBLE_EQ(x, 1.5);
  EXPECT_DOUBLE_EQ(vy, 0.2);
  EXPECT_DOUBLE_EQ(m, 4.5);
  std::filesystem::remove(path);
}

TEST(SlabImage, EmptySetRenders) {
  model::ParticleSet empty;
  const core::SlabImage img(core::SlabConfig{}, empty);
  EXPECT_EQ(img.particles_in_slab(), 0u);
  EXPECT_EQ(img.peak_count(), 0u);
  const std::string art = img.ascii();
  EXPECT_FALSE(art.empty());
  // All blank.
  for (char c : art) EXPECT_TRUE(c == ' ' || c == '\n');
}

TEST(Options, KeysEnumerated) {
  const char* argv[] = {"prog", "--b=2", "--a=1"};
  util::Options opt(3, argv);
  const auto keys = opt.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");  // map order: sorted
  EXPECT_EQ(keys[1], "b");
  EXPECT_TRUE(opt.has("a"));
  EXPECT_FALSE(opt.has("c"));
}

TEST(Table, RowCountAndEmptyHeaderRejected) {
  util::Table t({"x"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_THROW(util::Table{std::vector<std::string>{}},
               std::invalid_argument);
}

TEST(SelfTestReport, StringContainsPerBoardLines) {
  grape::SystemConfig cfg;
  cfg.board.jmem_capacity = 1024;
  grape::Grape5System sys(cfg);
  const auto report = grape::run_selftest(sys);
  const std::string s = report.str();
  EXPECT_NE(s.find("board 0"), std::string::npos);
  EXPECT_NE(s.find("board 1"), std::string::npos);
}

TEST(EngineParams, SetParamsTakesEffect) {
  // Large enough N that the list length is far from the all-N ceiling.
  auto pset = ic::make_plummer(ic::PlummerConfig{.n = 4096, .seed = 3});
  core::TreeEngine engine(
      core::ForceParams{.eps = 0.01, .theta = 1.2, .n_crit = 32},
      core::TreeEngine::Mode::Modified);
  engine.compute(pset);
  const auto loose = engine.stats().interactions;
  engine.reset_stats();
  auto p = engine.params();
  p.theta = 0.25;  // much tighter: far more interactions
  engine.set_params(p);
  engine.compute(pset);
  EXPECT_GT(engine.stats().interactions, 2 * loose);
}

TEST(EngineStats, PhaseTimingsOrdered) {
  // One lane: walk and kernel seconds are CPU seconds summed over lanes,
  // which exceed the wall clock whenever several lanes run at once.
  auto pset = ic::make_plummer(ic::PlummerConfig{.n = 512, .seed = 5});
  core::TreeEngine engine(
      core::ForceParams{.eps = 0.01, .theta = 0.6, .n_crit = 64, .threads = 1},
      core::TreeEngine::Mode::Modified);
  engine.compute(pset);
  const auto& s = engine.stats();
  EXPECT_GT(s.seconds_tree_build, 0.0);
  EXPECT_GT(s.seconds_walk, 0.0);
  EXPECT_GT(s.seconds_kernel, 0.0);
  EXPECT_GE(s.seconds_total,
            0.9 * (s.seconds_tree_build + s.seconds_walk + s.seconds_kernel));
}

TEST(Aabb, DegenerateBox) {
  model::ParticleSet p;
  p.add(Vec3d{2.0, 2.0, 2.0}, Vec3d{}, 1.0);
  const auto box = p.bounding_box();
  EXPECT_EQ(box.lo, box.hi);
  EXPECT_DOUBLE_EQ(box.cube_size(), 0.0);
  EXPECT_TRUE(box.contains(Vec3d{2.0, 2.0, 2.0}));
}

TEST(GrapeTree, TwoParticleSystem) {
  // Smallest nontrivial system through the full grape-tree path.
  model::ParticleSet p;
  p.add(Vec3d{0.5, 0.0, 0.0}, Vec3d{}, 1.0);
  p.add(Vec3d{-0.5, 0.0, 0.0}, Vec3d{}, 1.0);
  auto engine = core::make_engine(
      "grape-tree", core::ForceParams{.eps = 0.0, .theta = 0.75});
  engine->compute(p);
  // |a| = 1/d^2 = 1 toward each other.
  EXPECT_NEAR(p.acc()[0].x, -1.0, 0.02);
  EXPECT_NEAR(p.acc()[1].x, 1.0, 0.02);
  EXPECT_NEAR(p.pot()[0], -1.0, 0.02);
}

TEST(GrapeTree, SingleParticleNoForce) {
  model::ParticleSet p;
  p.add(Vec3d{1.0, 2.0, 3.0}, Vec3d{}, 5.0);
  auto engine = core::make_engine(
      "grape-tree", core::ForceParams{.eps = 0.01});
  engine->compute(p);
  EXPECT_EQ(p.acc()[0], (Vec3d{}));
  EXPECT_NEAR(p.pot()[0], 0.0, 1e-9);
}

}  // namespace
