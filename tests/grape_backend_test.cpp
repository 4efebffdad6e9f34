// Backend-equivalence suite for the batched multi-backend force kernel.
//
//  * BitExact vs the scalar oracle: Pipeline::interact_batch must be
//    bitwise-identical to the independent oracle (grape_lns_oracle.hpp)
//    for every segment shape (width 1, odd widths, the Native SIMD
//    width, ragged tails) — segmenting a stream cannot change a bit.
//  * Native vs host reference: the Native backend computes the same
//    interactions in plain double on quantized coordinates, so it must
//    track the host kernel to the position-quantization floor — per
//    call, and through the whole grape-tree engine at N = 65,536.
//  * Probe invariance: identical accelerations in, identical g5.err.*
//    out — the batched board path cannot move the probe's numbers.
//  * Zero-distance semantics: the i == j cut and the divergent
//    r^2 == 0 corner behave identically on both backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/engines.hpp"
#include "grape/driver.hpp"
#include "grape/host_reference.hpp"
#include "grape/pipeline.hpp"
#include "grape_lns_oracle.hpp"
#include "ic/plummer.hpp"
#include "math/rng.hpp"
#include "obs/probe.hpp"

namespace {

using namespace g5;
using grape::BackendKind;
using grape::IState;
using grape::JWord;
using grape::Pipeline;
using grape::PipelineNumerics;
using grape::PipelineScaling;
using grape::Vec3d;

PipelineScaling test_scaling(double eps = 0.01) {
  PipelineScaling s;
  s.range_lo = -10.0;
  s.range_hi = 10.0;
  s.eps = eps;
  s.force_quantum = 1e-9;
  s.potential_quantum = 1e-10;
  return s;
}

/// A j-set exercising the interesting lanes: generic geometry, a
/// coincident particle (the i == j cut), near and far neighbours.
std::vector<JWord> make_jset(const Pipeline& pipe, const Vec3d& xi,
                             std::size_t n, std::uint64_t seed) {
  math::Rng rng(seed);
  std::vector<JWord> js;
  js.reserve(n);
  js.push_back(pipe.encode_j(xi, 0.7));  // coincident: must be cut
  js.push_back(pipe.encode_j(xi + Vec3d{1e-4, 0.0, 0.0}, 1.2));
  while (js.size() < n) {
    js.push_back(pipe.encode_j(4.0 * rng.in_unit_ball(),
                               rng.uniform(0.1, 1.5)));
  }
  return js;
}

bool bitwise_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_state(const Pipeline& pipe, const IState& a, const IState& b) {
  const Vec3d fa = pipe.read_force(a);
  const Vec3d fb = pipe.read_force(b);
  return bitwise_equal(fa.x, fb.x) && bitwise_equal(fa.y, fb.y) &&
         bitwise_equal(fa.z, fb.z) &&
         bitwise_equal(pipe.read_potential(a), pipe.read_potential(b)) &&
         pipe.saturated(a) == pipe.saturated(b);
}

TEST(Backend, BatchedBitwiseIdenticalAcrossWidths) {
  Pipeline pipe{PipelineNumerics{}};
  pipe.configure(test_scaling());
  const Vec3d xi{0.3, -0.2, 0.1};
  const std::size_t w = Pipeline::batch_width();
  const auto js = make_jset(pipe, xi, 4 * w + 5, 101);

  // Scalar reference: one oracle interaction per j, in stream order.
  const oracle::LnsOracle scalar(pipe);
  IState ref = pipe.encode_i(xi);
  for (const JWord& j : js) scalar.interact(ref, j);

  // Whole-stream batch (the board path: blocks of batch_width + a ragged
  // tail inside interact_batch).
  {
    IState st = pipe.encode_i(xi);
    pipe.interact_batch(st, js.data(), js.size());
    EXPECT_TRUE(same_state(pipe, ref, st)) << "whole stream";
  }

  // Segmented batches: width 1, an odd width, exactly the SIMD width, and
  // a ragged split — chunk boundaries must not change a single bit.
  for (const std::size_t width : {std::size_t{1}, std::size_t{3}, w, w + 5}) {
    IState st = pipe.encode_i(xi);
    for (std::size_t base = 0; base < js.size(); base += width) {
      const std::size_t n = std::min(width, js.size() - base);
      pipe.interact_batch(st, js.data() + base, n);
    }
    EXPECT_TRUE(same_state(pipe, ref, st)) << "segment width " << width;
  }
}

TEST(Backend, BatchedBitwiseIdenticalUnsoftened) {
  // eps = 0 exercises the r^2 path without the softening floor.
  Pipeline pipe{PipelineNumerics{}};
  pipe.configure(test_scaling(0.0));
  const Vec3d xi{-1.0, 2.0, 0.5};
  const auto js = make_jset(pipe, xi, 37, 202);
  const oracle::LnsOracle scalar(pipe);
  IState ref = pipe.encode_i(xi);
  for (const JWord& j : js) scalar.interact(ref, j);
  IState st = pipe.encode_i(xi);
  pipe.interact_batch(st, js.data(), js.size());
  EXPECT_TRUE(same_state(pipe, ref, st));
}

TEST(Backend, NativeMatchesHostReference) {
  PipelineNumerics num;
  num.backend = BackendKind::Native;
  Pipeline pipe{num};
  pipe.configure(test_scaling());

  math::Rng rng(7);
  const std::size_t nj = 512;
  std::vector<Vec3d> jpos(nj);
  std::vector<double> jmass(nj);
  for (std::size_t j = 0; j < nj; ++j) {
    jpos[j] = 4.0 * rng.in_unit_ball();
    jmass[j] = rng.uniform(0.1, 1.5);
  }
  const Vec3d xi{0.25, -0.4, 0.8};
  IState st = pipe.encode_i(xi);
  std::vector<JWord> js(nj);
  for (std::size_t j = 0; j < nj; ++j) {
    js[j] = pipe.encode_j(jpos[j], jmass[j]);
  }
  pipe.interact_batch(st, js.data(), js.size());

  Vec3d ref_acc[1];
  double ref_pot[1];
  grape::host_forces_on_targets({&xi, 1}, jpos, jmass, 0.01, ref_acc,
                                ref_pot);
  // Only the 32-bit coordinate quantization separates the two: ~5e-9
  // relative positions; 1e-6 leaves margin for close pairs.
  EXPECT_LT((pipe.read_force(st) - ref_acc[0]).norm() / ref_acc[0].norm(),
            1e-6);
  EXPECT_NEAR(pipe.read_potential(st), ref_pot[0],
              1e-6 * std::fabs(ref_pot[0]));
  EXPECT_FALSE(pipe.saturated(st));

  // One-j segments accumulate the same sums.
  IState sc = pipe.encode_i(xi);
  for (const JWord& j : js) pipe.interact_batch(sc, &j, 1);
  EXPECT_LT((pipe.read_force(sc) - pipe.read_force(st)).norm(),
            1e-12 * pipe.read_force(st).norm());
}

TEST(Backend, ZeroDistanceSemanticsIdenticalAcrossPaths) {
  const BackendKind backends[] = {BackendKind::BitExact, BackendKind::Native};
  // Coincident pair: cut entirely, on every backend.
  for (const BackendKind backend : backends) {
    PipelineNumerics num;
    num.backend = backend;
    Pipeline pipe{num};
    pipe.configure(test_scaling(0.0));
    const Vec3d x{1.0, 2.0, 3.0};
    IState st = pipe.encode_i(x);
    const JWord j = pipe.encode_j(x, 2.0);
    pipe.interact_batch(st, &j, 1);
    const auto variant = grape::backend_name(backend);
    EXPECT_EQ(pipe.read_force(st), (Vec3d{})) << "variant " << variant;
    EXPECT_DOUBLE_EQ(pipe.read_potential(st), 0.0) << "variant " << variant;
    EXPECT_FALSE(pipe.saturated(st)) << "variant " << variant;
  }

  // Divergent corner: distinct fixed-point coordinates whose double
  // separation-squared underflows to zero with eps == 0. Every path must
  // saturate (infinite potential well, force toward the source) rather
  // than silently drop the pair.
  for (const BackendKind backend : backends) {
    PipelineNumerics num;
    num.backend = backend;
    Pipeline pipe{num};
    PipelineScaling s;
    s.range_lo = -5e-155;
    s.range_hi = 5e-155;
    s.eps = 0.0;
    s.force_quantum = 1e-18;
    s.potential_quantum = 1e-18;
    pipe.configure(s);
    const double q = pipe.position_quantum();
    ASSERT_LT(q, 1e-160);
    IState st = pipe.encode_i(Vec3d{0.0, 0.0, 0.0});
    // 3 codes along +x: nonzero fixed-point difference, (3q)^2 == 0.0.
    const JWord j = pipe.encode_j(Vec3d{3.0 * q, 0.0, 0.0}, 1.0);
    pipe.interact_batch(st, &j, 1);
    const auto variant = grape::backend_name(backend);
    EXPECT_TRUE(pipe.saturated(st)) << "variant " << variant;
    EXPECT_GT(pipe.read_force(st).x, 0.0) << "variant " << variant;
    EXPECT_LT(pipe.read_potential(st), 0.0) << "variant " << variant;
  }
}

TEST(Backend, NativeGrapeTreeMatchesHostTreeAt65k) {
  // Native grape-tree walks the same tree into the same lists as
  // host-tree-modified, so only coordinate quantization and the
  // accumulator quanta separate them. N = 65,536 is far enough out that
  // an accumulator grid with too little headroom hits the rail here.
  const auto base =
      ic::make_plummer(ic::PlummerConfig{.n = 65536, .seed = 1});
  core::ForceParams fp{.eps = 0.02, .theta = 0.75, .n_crit = 256};
  fp.backend = BackendKind::Native;
  model::ParticleSet grape_set = base;
  const auto grape_engine = core::make_engine("grape-tree", fp);
  grape_engine->compute(grape_set);
  model::ParticleSet host_set = base;
  core::make_engine("host-tree-modified", fp)->compute(host_set);

  std::vector<double> rel(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    rel[i] = (grape_set.acc()[i] - host_set.acc()[i]).norm() /
             host_set.acc()[i].norm();
  }
  std::sort(rel.begin(), rel.end());
  const double p99 = rel[rel.size() * 99 / 100];
  EXPECT_LT(p99, 1e-6) << "p50 " << rel[rel.size() / 2] << " max "
                       << rel.back();
  EXPECT_FALSE(grape_engine->grape_device()->system().any_saturation());
}

TEST(Backend, EngineBackendPlumbing) {
  core::ForceParams fp;
  fp.backend = BackendKind::Native;
  const auto tree_engine = core::make_engine("grape-tree", fp);
  ASSERT_NE(tree_engine->grape_device(), nullptr);
  EXPECT_EQ(tree_engine->grape_device()->system().config().numerics.backend,
            BackendKind::Native);
  fp.backend = BackendKind::BitExact;
  const auto direct_engine = core::make_engine("grape-direct", fp);
  ASSERT_NE(direct_engine->grape_device(), nullptr);
  EXPECT_EQ(direct_engine->grape_device()->system().config().numerics.backend,
            BackendKind::BitExact);

  BackendKind parsed = BackendKind::BitExact;
  EXPECT_TRUE(grape::parse_backend("native", parsed));
  EXPECT_EQ(parsed, BackendKind::Native);
  EXPECT_TRUE(grape::parse_backend("bit-exact", parsed));
  EXPECT_EQ(parsed, BackendKind::BitExact);
  EXPECT_FALSE(grape::parse_backend("fast", parsed));
  EXPECT_EQ(grape::backend_name(BackendKind::Native), "native");
  EXPECT_EQ(grape::backend_name(BackendKind::BitExact), "bit-exact");
}

TEST(Backend, ProbeInvariantScalarVsBatchedBoardPath) {
  // End-to-end pin for the probe numbers: run a snapshot through the
  // (batched) device path, replay the identical evaluation with the
  // scalar oracle, and require (a) bitwise-identical accelerations
  // and (b) bitwise-identical ForceErrorProbe results — g5.err.* cannot
  // move under the batching.
  auto pset = ic::make_plummer(ic::PlummerConfig{.n = 256, .seed = 4242});
  auto replay = pset;

  grape::SystemConfig cfg = grape::SystemConfig::paper_system();
  cfg.boards = 1;  // single board: the replay below is the full reduction
  auto device = std::make_shared<grape::Grape5Device>(cfg);
  core::ForceParams fp;
  fp.eps = 0.01;
  auto engine = core::make_engine("grape-direct", fp, device);
  engine->compute(pset);

  // Scalar replay of the same evaluation: same window, same j order,
  // one oracle interaction per j against the whole set.
  Pipeline pipe{cfg.numerics};
  pipe.configure(device->system().scaling());
  const oracle::LnsOracle scalar(pipe);
  std::vector<JWord> js(replay.size());
  for (std::size_t j = 0; j < replay.size(); ++j) {
    js[j] = pipe.encode_j(replay.pos()[j], replay.mass()[j]);
  }
  for (std::size_t i = 0; i < replay.size(); ++i) {
    IState st = pipe.encode_i(replay.pos()[i]);
    for (const JWord& j : js) scalar.interact(st, j);
    replay.acc()[i] = pipe.read_force(st);
    replay.pot()[i] = pipe.read_potential(st);
  }
  for (std::size_t i = 0; i < pset.size(); ++i) {
    ASSERT_TRUE(bitwise_equal(pset.acc()[i].x, replay.acc()[i].x) &&
                bitwise_equal(pset.acc()[i].y, replay.acc()[i].y) &&
                bitwise_equal(pset.acc()[i].z, replay.acc()[i].z) &&
                bitwise_equal(pset.pot()[i], replay.pot()[i]))
        << "particle " << i;
  }

  obs::ProbeConfig pc;
  pc.samples = 32;
  pc.eps = fp.eps;
  obs::ForceErrorProbe probe_device(pc);
  obs::ForceErrorProbe probe_replay(pc);
  const obs::ProbeResult a = probe_device.measure(pset);
  const obs::ProbeResult b = probe_replay.measure(replay);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_TRUE(bitwise_equal(a.total_p50, b.total_p50));
  EXPECT_TRUE(bitwise_equal(a.total_p99, b.total_p99));
  EXPECT_TRUE(bitwise_equal(a.tree_p50, b.tree_p50));
  EXPECT_TRUE(bitwise_equal(a.tree_p99, b.tree_p99));
  EXPECT_TRUE(bitwise_equal(a.codec_p50, b.codec_p50));
  EXPECT_TRUE(bitwise_equal(a.codec_p99, b.codec_p99));
  EXPECT_TRUE(bitwise_equal(a.total_max, b.total_max));
  EXPECT_TRUE(bitwise_equal(a.tree_max, b.tree_max));
  EXPECT_TRUE(bitwise_equal(a.codec_max, b.codec_max));
}

TEST(Backend, NativeProbeReportsVanishingCodecError) {
  // The probe replicates the engine's backend: with Native the codec leg
  // runs the same double arithmetic as its host reference, so the codec
  // error collapses to the coordinate-quantization floor.
  auto pset = ic::make_plummer(ic::PlummerConfig{.n = 512, .seed = 99});
  core::ForceParams fp;
  fp.eps = 0.01;
  fp.backend = BackendKind::Native;
  auto engine = core::make_engine("grape-tree", fp);
  engine->compute(pset);

  obs::ProbeConfig pc;
  pc.samples = 32;
  pc.eps = fp.eps;
  pc.theta = fp.theta;
  pc.backend = fp.backend;
  obs::ForceErrorProbe probe(pc);
  const obs::ProbeResult r = probe.measure(pset);
  ASSERT_GT(r.samples, 0u);
  EXPECT_LT(r.codec_p50, 1e-6);   // ~0: only coordinate quantization left
  EXPECT_GT(r.tree_p50, 1e-5);    // tree truncation error is untouched
  EXPECT_LT(r.tree_p50, 0.01);
}

}  // namespace
