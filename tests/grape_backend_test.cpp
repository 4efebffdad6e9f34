// Backend-equivalence suite for the batched multi-backend force kernel.
//
//  * BitExact vs the scalar oracle: Pipeline::evaluate must be
//    bitwise-identical to the independent oracle (grape_lns_oracle.hpp)
//    for every segment shape (width 1, odd widths, the Native block
//    width, ragged tails), the segments' counts merged as the boards
//    merge them — segmenting a stream cannot change a bit.
//  * BitExact lanes vs the scalar oracle: the vectorized lane loop and
//    its exact scalar fallback, bitwise, across tile boundaries, formats,
//    zero and negative masses, eps == 0, subnormal coordinate
//    differences, decodes below the table split and accumulators at the
//    rail; a stage stays one tile long; non-finite coordinates throw.
//  * Native vs host reference: the Native backend computes the same
//    interactions in plain double on quantized coordinates, so it must
//    track the host kernel to the position-quantization floor — per
//    call, and through the whole grape-tree engine at N = 65,536.
//  * Probe invariance: identical accelerations in, identical g5.err.*
//    out — the batched board path cannot move the probe's numbers.
//  * Zero-distance semantics: the i == j cut and the divergent
//    r^2 == 0 corner behave identically on both backends.
//  * Native evaluate vs a scalar reference: Pipeline::evaluate's Native
//    path — tile sums inside the capacity check, the block drain for
//    every other tile — must equal one pair at a time through
//    FixedAccumulator::add, bitwise, saturation latch included — for
//    stream lengths around the block and the tile against 1 to 5
//    targets, a Plummer N = 65,536 list on the engines' quanta,
//    coincident entries, the divergent corner (any sign of the mass,
//    and among cut entries), counts above the drain's 2^59 block bound
//    and up to 2^62, registers preloaded near the rail, huge counts,
//    and accumulators crossing the rail.
//  * BitExact vs the scalar oracle on the same drain cases, and a
//    flagged lane refusing only its own tile, with the stage's counts of
//    the tiles that took the drain.
//  * The capacity check: at the pair maximizer r = eps / sqrt(2) every
//    count stays under the cap the check uses, on both backends and two
//    log formats; a stream whose running mass crosses the capacity in
//    mid-call drains from that tile on, bitwise the reference and the
//    oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
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
using grape::JWord;
using grape::Pipeline;
using grape::PipelineNumerics;
using grape::PipelineScaling;
using grape::RawForce;
using grape::Vec3d;

/// A hand-set window and quanta. With eps = 0.01 the force count cap is
/// ~2^39 per unit mass, so the capacity check holds for ~2,000 units of
/// mass per call: the test streams (up to ~1,500 words of mass <= 1.5)
/// take the tile sums, longer ones cross it and drain.
PipelineScaling test_scaling(double eps = 0.01) {
  PipelineScaling s;
  s.range_lo = -10.0;
  s.range_hi = 10.0;
  s.eps = eps;
  s.force_quantum = 0x1p-27;
  s.potential_quantum = 0x1p-30;
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

bool same_raw(const RawForce& a, const RawForce& b) {
  return a.acc[0] == b.acc[0] && a.acc[1] == b.acc[1] &&
         a.acc[2] == b.acc[2] && a.pot == b.pot &&
         a.saturated == b.saturated;
}

/// One target against a j-stream through Pipeline::evaluate.
RawForce evaluate_one(const Pipeline& pipe, std::span<const JWord> js,
                      const Vec3d& target) {
  grape::EvalStage stage;
  RawForce raw;
  pipe.evaluate(js, {&target, 1}, {&raw, 1}, stage);
  return raw;
}

/// Merge a segment's counts into `sum` as the board merge does (exact
/// integer adds; the streams here stay far below the rail).
void merge(RawForce& sum, const RawForce& part) {
  for (std::size_t c = 0; c < 3; ++c) sum.acc[c] += part.acc[c];
  sum.pot += part.pot;
  sum.saturated = sum.saturated || part.saturated;
}

/// A raw readout converted to force and potential.
struct Converted {
  Vec3d acc;
  double pot = 0.0;
};

Converted convert(const Pipeline& pipe, const RawForce& raw) {
  Converted c;
  pipe.convert_raw(raw, c.acc, c.pot);
  return c;
}

TEST(Backend, BatchedBitwiseIdenticalAcrossWidths) {
  Pipeline pipe{PipelineNumerics{}};
  pipe.configure(test_scaling());
  const Vec3d xi{0.3, -0.2, 0.1};
  const std::size_t w = Pipeline::batch_width();
  const auto js = make_jset(pipe, xi, 4 * w + 5, 101);

  // Scalar reference: one oracle interaction per j, in stream order.
  const RawForce ref = oracle::LnsOracle(pipe).evaluate(js, xi);
  ASSERT_FALSE(ref.saturated);

  // The whole stream in one call.
  EXPECT_TRUE(same_raw(ref, evaluate_one(pipe, js, xi))) << "whole stream";

  // Segmented calls merged in the count domain: width 1, an odd width,
  // exactly the block width, and a ragged split — segment boundaries must
  // not change a single bit.
  for (const std::size_t width : {std::size_t{1}, std::size_t{3}, w, w + 5}) {
    RawForce sum;
    for (std::size_t base = 0; base < js.size(); base += width) {
      const std::size_t n = std::min(width, js.size() - base);
      merge(sum, evaluate_one(pipe, {js.data() + base, n}, xi));
    }
    EXPECT_TRUE(same_raw(ref, sum)) << "segment width " << width;
  }
}

TEST(Backend, BatchedBitwiseIdenticalUnsoftened) {
  // eps = 0 exercises the r^2 path without the softening floor.
  Pipeline pipe{PipelineNumerics{}};
  pipe.configure(test_scaling(0.0));
  const Vec3d xi{-1.0, 2.0, 0.5};
  const auto js = make_jset(pipe, xi, 37, 202);
  const RawForce ref = oracle::LnsOracle(pipe).evaluate(js, xi);
  EXPECT_TRUE(same_raw(ref, evaluate_one(pipe, js, xi)));
}

/// Pipeline::evaluate on every target against the scalar oracle, bitwise.
void expect_lns_matches_oracle(const Pipeline& pipe, std::span<const JWord> js,
                               std::span<const Vec3d> targets,
                               grape::EvalStage& stage,
                               const std::string& what) {
  std::vector<RawForce> out(targets.size());
  pipe.evaluate(js, targets, out, stage);
  const oracle::LnsOracle scalar(pipe);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const RawForce ref = scalar.evaluate(js, targets[i]);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(out[i].acc[c], ref.acc[c])
          << what << ", target " << i << ", component " << c;
    }
    EXPECT_EQ(out[i].pot, ref.pot) << what << ", target " << i;
    EXPECT_EQ(out[i].saturated, ref.saturated) << what << ", target " << i;
  }
}

Pipeline lns_pipeline(const PipelineScaling& s, int frac_bits = 8,
                      int table_index_bits = 7) {
  PipelineNumerics num;
  num.lns_frac_bits = frac_bits;
  num.table_index_bits = table_index_bits;
  Pipeline pipe{num};
  pipe.configure(s);
  return pipe;
}

/// make_jset with every 5th mass zero and every 7th negative, and the
/// second and last targets placed on j-words in the first and the last
/// tile.
std::vector<JWord> make_signed_jset(const Pipeline& pipe,
                                    const std::vector<Vec3d>& targets,
                                    std::size_t n, std::uint64_t seed) {
  math::Rng rng(seed);
  std::vector<JWord> js = make_jset(pipe, targets[0], std::max<std::size_t>(n, 2),
                                    seed);
  js.resize(n);
  for (std::size_t k = 2; k < n; ++k) {
    const Vec3d pos = 4.0 * rng.in_unit_ball();
    const double m = rng.uniform(0.1, 1.5);
    js[k] = pipe.encode_j(pos, k % 5 == 0 ? 0.0 : k % 7 == 0 ? -m : m);
  }
  if (n > 3 && targets.size() > 1) js[3] = pipe.encode_j(targets[1], 0.9);
  if (n > 8) js[n - 2] = pipe.encode_j(targets.back(), -0.4);
  return js;
}

TEST(Backend, LnsLanesMatchOracleAcrossTileLengths) {
  const std::size_t t = Pipeline::tile_length();
  const std::vector<Vec3d> targets = {Vec3d{0.3, -0.2, 0.1},
                                      Vec3d{-1.0, 0.5, 2.0},
                                      Vec3d{1.5, 1.0, -0.5},
                                      Vec3d{3.0, -3.0, 1.0}};
  for (const double eps : {0.01, 0.0}) {
    const Pipeline pipe = lns_pipeline(test_scaling(eps));
    grape::EvalStage stage;
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}, t - 1, t,
                                t + 1, 3 * t + 5}) {
      const auto js = make_signed_jset(pipe, targets, n, 600 + n);
      expect_lns_matches_oracle(pipe, js, targets, stage,
                                "eps " + std::to_string(eps) + ", length " +
                                    std::to_string(n));
    }
  }
}

TEST(Backend, LnsLanesMatchOracleAcrossFormats) {
  const std::vector<Vec3d> targets = {Vec3d{0.3, -0.2, 0.1},
                                      Vec3d{-1.0, 0.5, 2.0},
                                      Vec3d{2.0, 2.0, 2.0}};
  for (const auto& [frac, table] : {std::pair{5, 0}, std::pair{8, 7},
                                    std::pair{12, 7}, std::pair{16, 7}}) {
    const Pipeline pipe = lns_pipeline(test_scaling(), frac, table);
    const auto js = make_signed_jset(pipe, targets, 300, 700);
    grape::EvalStage stage;
    expect_lns_matches_oracle(pipe, js, targets, stage,
                              "F " + std::to_string(frac) + ", table " +
                                  std::to_string(table));
  }
}

TEST(Backend, LnsLanesFallBackOnSubnormalDifferences) {
  // A window whose position quantum is subnormal: differences of a few
  // codes are subnormal doubles, which the lane encode cannot take, and
  // every square underflows below the table split. Each tile goes
  // through the exact scalar fallback.
  PipelineScaling s;
  s.range_lo = -2e-299;
  s.range_hi = 2e-299;
  s.eps = 0.0;
  s.force_quantum = 0x1p900;
  s.potential_quantum = 0x1p280;
  const Pipeline pipe = lns_pipeline(s);
  const double q = pipe.position_quantum();
  ASSERT_LT(q, std::numeric_limits<double>::min());
  std::vector<JWord> js;
  math::Rng rng(801);
  for (std::size_t k = 0; k < 40; ++k) {
    const double code = std::floor(rng.uniform(-40.0, 40.0));
    js.push_back(pipe.encode_j(Vec3d{code * q, 3.0 * q, -code * q},
                               rng.uniform(0.5, 2.0)));
  }
  const std::vector<Vec3d> targets = {Vec3d{0.0, 0.0, 0.0},
                                      Vec3d{5.0 * q, 3.0 * q, -5.0 * q}};
  grape::EvalStage stage;
  expect_lns_matches_oracle(pipe, js, targets, stage, "subnormal window");
}

TEST(Backend, LnsLanesFallBackBelowTheTableSplit) {
  // One word of a bottom-of-range mass in the second tile: its products
  // decode below q = -1021, where the lanes flag and the tile is
  // recomputed one pair at a time; the other tiles stay in the lanes.
  const Pipeline pipe = lns_pipeline(test_scaling());
  const std::vector<Vec3d> targets = {Vec3d{0.3, -0.2, 0.1},
                                      Vec3d{-2.0, 1.0, 0.5}};
  auto js = make_signed_jset(pipe, targets, 2 * Pipeline::tile_length() + 9,
                             900);
  const std::size_t k = Pipeline::tile_length() + 17;
  js[k] = pipe.encode_j(Vec3d{1.0, 2.0, 3.0}, 2.5e-308);
  const math::LnsFormat lns(8);
  ASSERT_LT(lns.to_double(lns.mul(js[k].mass, lns.from_double(0.3))),
            0x1p-1021);
  grape::EvalStage stage;
  expect_lns_matches_oracle(pipe, js, targets, stage, "bottom-of-range mass");
  // A subnormal mass word as well.
  js[5] = pipe.encode_j(Vec3d{-1.0, -2.0, 0.5}, 1e-320);
  expect_lns_matches_oracle(pipe, js, targets, stage, "subnormal mass");
}

TEST(Backend, LnsEvaluateNearRailMatchesOracle) {
  // As NativeEvaluateNearRailMatchesReference, on the bit-exact datapath:
  // a heavy first j-word puts the x register within batch_width() * 2^59
  // of the rail; with the heavy tail it crosses the rail, latches and
  // steps back below it. Every prefix against the oracle.
  PipelineScaling s = test_scaling();
  s.force_quantum = 0x1p-60;
  s.potential_quantum = 0x1p-30;
  const Pipeline pipe = lns_pipeline(s);
  const Vec3d xi{0.0, 0.0, 0.0};
  const double heavy =
      (static_cast<double>(math::kAccumulatorRail) -
       0.5 * static_cast<double>(Pipeline::batch_width()) * 0x1p59) *
      s.force_quantum;
  const std::size_t w = Pipeline::batch_width();
  for (const double tail_mass : {1.0, 1e-7}) {
    std::vector<JWord> js;
    js.push_back(pipe.encode_j(Vec3d{1.0, 0.0, 0.0}, heavy));
    for (std::size_t k = 1; k < 12 * w; ++k) {
      const double offset = 1e-3 * static_cast<double>(k);
      const double x = k % w < w / 2 ? 2.0 + offset : -2.5 - offset;
      js.push_back(pipe.encode_j(Vec3d{x, 0.3, -0.2}, tail_mass));
    }
    const oracle::LnsOracle scalar(pipe);
    ASSERT_GT(scalar.evaluate({js.data(), 1}, xi).acc[0],
              math::kAccumulatorRail -
                  static_cast<std::int64_t>(w) * (std::int64_t{1} << 59));
    EXPECT_EQ(scalar.evaluate(js, xi).saturated, tail_mass > 0.5);
    grape::EvalStage stage;
    const std::vector<Vec3d> targets = {xi};
    for (std::size_t n = 1; n <= js.size(); ++n) {
      expect_lns_matches_oracle(pipe, {js.data(), n}, targets, stage,
                                "tail mass " + std::to_string(tail_mass) +
                                    ", length " + std::to_string(n));
    }
  }
}

TEST(Backend, StageBuffersStayOneTileLong) {
  const std::size_t t = Pipeline::tile_length();
  for (const BackendKind backend : {BackendKind::BitExact, BackendKind::Native}) {
    PipelineNumerics num;
    num.backend = backend;
    Pipeline pipe{num};
    pipe.configure(test_scaling());
    const std::vector<Vec3d> targets = {Vec3d{0.3, -0.2, 0.1},
                                        Vec3d{1.0, 1.0, 1.0}};
    const auto js = make_jset(pipe, targets[0], 20000, 1001);
    grape::EvalStage stage;
    std::vector<RawForce> out(targets.size());
    pipe.evaluate(js, targets, out, stage);
    const auto variant = grape::backend_name(backend);
    for (const auto* v : {&stage.x, &stage.y, &stage.z, &stage.m, &stage.cx,
                          &stage.cy, &stage.cz, &stage.cp}) {
      EXPECT_LE(v->capacity(), t) << variant;
    }
    EXPECT_LE(stage.mlog.capacity(), t) << variant;
    EXPECT_LE(stage.msign.capacity(), t) << variant;
    EXPECT_LE(stage.mlive.capacity(), t) << variant;
    EXPECT_LE(stage.sums.capacity(), 4 * (t / Pipeline::batch_width()))
        << variant;
  }
}

TEST(Backend, NonFiniteCoordinatesRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const BackendKind backend : {BackendKind::BitExact, BackendKind::Native}) {
    PipelineNumerics num;
    num.backend = backend;
    Pipeline pipe{num};
    pipe.configure(test_scaling());
    const auto variant = grape::backend_name(backend);
    EXPECT_THROW((void)pipe.encode_j(Vec3d{nan, 0.0, 0.0}, 1.0),
                 std::invalid_argument)
        << variant;
    EXPECT_THROW((void)pipe.encode_j(Vec3d{0.0, 0.0, -inf}, 1.0),
                 std::invalid_argument)
        << variant;
    const auto js = make_jset(pipe, Vec3d{}, 10, 1101);
    grape::EvalStage stage;
    std::vector<RawForce> out(2);
    for (const Vec3d bad : {Vec3d{0.0, nan, 0.0}, Vec3d{inf, 0.0, 0.0}}) {
      const std::vector<Vec3d> targets = {Vec3d{0.5, 0.5, 0.5}, bad};
      EXPECT_THROW(pipe.evaluate(js, targets, out, stage),
                   std::invalid_argument)
          << variant;
      // Rejected even with no j-words to stream.
      EXPECT_THROW(pipe.evaluate({}, targets, out, stage),
                   std::invalid_argument)
          << variant;
    }
  }
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
  std::vector<JWord> js(nj);
  for (std::size_t j = 0; j < nj; ++j) {
    js[j] = pipe.encode_j(jpos[j], jmass[j]);
  }
  const RawForce st = evaluate_one(pipe, js, xi);

  Vec3d ref_acc[1];
  double ref_pot[1];
  grape::host_forces_on_targets({&xi, 1}, jpos, jmass, 0.01, ref_acc,
                                ref_pot);
  // Only the 32-bit coordinate quantization separates the two: ~5e-9
  // relative positions; 1e-6 leaves margin for close pairs.
  EXPECT_LT((convert(pipe, st).acc - ref_acc[0]).norm() / ref_acc[0].norm(),
            1e-6);
  EXPECT_NEAR(convert(pipe, st).pot, ref_pot[0],
              1e-6 * std::fabs(ref_pot[0]));
  EXPECT_FALSE(st.saturated);

  // One-j segments accumulate the same sums.
  RawForce sc;
  for (const JWord& j : js) merge(sc, evaluate_one(pipe, {&j, 1}, xi));
  EXPECT_LT((convert(pipe, sc).acc - convert(pipe, st).acc).norm(),
            1e-12 * convert(pipe, st).acc.norm());
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
    const JWord j = pipe.encode_j(x, 2.0);
    const RawForce st = evaluate_one(pipe, {&j, 1}, x);
    const auto variant = grape::backend_name(backend);
    EXPECT_EQ(convert(pipe, st).acc, (Vec3d{})) << "variant " << variant;
    EXPECT_DOUBLE_EQ(convert(pipe, st).pot, 0.0) << "variant " << variant;
    EXPECT_FALSE(st.saturated) << "variant " << variant;
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
    s.force_quantum = 0x1p-60;
    s.potential_quantum = 0x1p-60;
    pipe.configure(s);
    const double q = pipe.position_quantum();
    ASSERT_LT(q, 1e-160);
    // 3 codes along +x: nonzero fixed-point difference, (3q)^2 == 0.0.
    const JWord j = pipe.encode_j(Vec3d{3.0 * q, 0.0, 0.0}, 1.0);
    const RawForce st = evaluate_one(pipe, {&j, 1}, Vec3d{0.0, 0.0, 0.0});
    const auto variant = grape::backend_name(backend);
    EXPECT_TRUE(st.saturated) << "variant " << variant;
    EXPECT_GT(convert(pipe, st).acc.x, 0.0) << "variant " << variant;
    EXPECT_LT(convert(pipe, st).pot, 0.0) << "variant " << variant;
  }
}

/// Independent scalar reference of the Native datapath: one pair at a
/// time, in stream order, each term through FixedAccumulator::add. The
/// i == j cut drops coincident codes; a non-coincident pair whose r^2
/// underflows to zero saturates (infinite potential, force along the
/// components that survive).
RawForce native_reference(const Pipeline& pipe, std::span<const JWord> js,
                          const Vec3d& target) {
  const JWord ti = pipe.encode_j(target, 0.0);  // the target's codes
  math::FixedAccumulator acc[3] = {
      math::FixedAccumulator(pipe.force_accumulator_quantum()),
      math::FixedAccumulator(pipe.force_accumulator_quantum()),
      math::FixedAccumulator(pipe.force_accumulator_quantum())};
  math::FixedAccumulator pot(pipe.potential_accumulator_quantum());
  const double q = pipe.position_quantum();
  const double eps = pipe.scaling().eps;
  const double inf = std::numeric_limits<double>::infinity();
  for (const JWord& j : js) {
    double d[3];
    bool coincident = true;
    for (std::size_t c = 0; c < 3; ++c) {
      const std::int64_t code = j.x[c].code() - ti.x[c].code();
      coincident = coincident && code == 0;
      d[c] = static_cast<double>(code) * q;
    }
    if (coincident) continue;
    const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + eps * eps;
    const double m = j.mass_exact;
    if (r2 == 0.0) {
      const double sign = m < 0.0 ? -1.0 : 1.0;
      for (std::size_t c = 0; c < 3; ++c) {
        acc[c].add(d[c] != 0.0 ? sign * std::copysign(inf, d[c]) : 0.0);
      }
      pot.add(-(sign * inf));
      continue;
    }
    const double rinv = 1.0 / std::sqrt(r2);
    const double mg = m * (rinv * rinv * rinv);
    for (std::size_t c = 0; c < 3; ++c) acc[c].add(mg * d[c]);
    pot.add(-(m * rinv));
  }
  RawForce r;
  for (std::size_t c = 0; c < 3; ++c) r.acc[c] = acc[c].raw();
  r.pot = pot.raw();
  r.saturated = acc[0].saturated() || acc[1].saturated() ||
                acc[2].saturated() || pot.saturated();
  return r;
}

/// Pipeline::evaluate on every target against native_reference, bitwise.
void expect_native_matches_reference(const Pipeline& pipe,
                                     std::span<const JWord> js,
                                     std::span<const Vec3d> targets,
                                     grape::EvalStage& stage,
                                     const std::string& what) {
  std::vector<RawForce> out(targets.size());
  pipe.evaluate(js, targets, out, stage);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const RawForce ref = native_reference(pipe, js, targets[i]);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(out[i].acc[c], ref.acc[c])
          << what << ", target " << i << ", component " << c;
    }
    EXPECT_EQ(out[i].pot, ref.pot) << what << ", target " << i;
    EXPECT_EQ(out[i].saturated, ref.saturated) << what << ", target " << i;
  }
}

Pipeline native_pipeline(const PipelineScaling& s) {
  PipelineNumerics num;
  num.backend = BackendKind::Native;
  Pipeline pipe{num};
  pipe.configure(s);
  return pipe;
}

TEST(Backend, NativeEvaluateBitwiseMatchesScalarReference) {
  const Pipeline pipe = native_pipeline(test_scaling());
  const std::size_t w = Pipeline::batch_width();
  const Vec3d xi{0.3, -0.2, 0.1};
  // Targets: xi (coincident with j 0), one on a j-word deep in the
  // stream and one on a j-word of the first blocks, and a free point.
  const std::vector<Vec3d> targets = {xi, Vec3d{-1.0, 0.5, 2.0},
                                      Vec3d{0.0, 0.0, 0.0},
                                      Vec3d{3.0, -3.0, 1.0}};
  auto all = make_jset(pipe, xi, 1400, 303);
  all[700] = pipe.encode_j(targets[1], 0.9);
  all[w + 1] = pipe.encode_j(targets[2], 0.3);
  // One stage reused across every length, longest first, so a shorter
  // stream also runs over the stale tail of a longer one.
  grape::EvalStage stage;
  expect_native_matches_reference(pipe, all, targets, stage, "length 1400");
  for (std::size_t n = 1; n <= 2 * w + 3; ++n) {
    expect_native_matches_reference(pipe, {all.data(), n}, targets, stage,
                                    "length " + std::to_string(n));
  }

  // On the quanta the engines install (snapshot_window of a Plummer
  // N = 65,536 snapshot): a list shaped like a native-65k group's, 1,000
  // particles and 400 cells (the mass of 64 particles, placed where the
  // snapshot's density puts them), streamed past 64 of its particles
  // (each meets itself). On an AVX2 host this pins the dispatched AVX2
  // clone against the reference.
  const auto pset =
      ic::make_plummer(ic::PlummerConfig{.n = 65536, .seed = 1});
  const model::Aabb box = pset.bounding_box();
  const Pipeline engine_pipe = native_pipeline(
      grape::snapshot_window(box.lo, box.hi, pset.mass()).scaling(0.02));
  std::vector<JWord> list;
  for (std::size_t k = 0; k < 1000; ++k) {
    list.push_back(engine_pipe.encode_j(pset.pos()[k], pset.mass()[k]));
  }
  for (std::size_t k = 1000; k < 1400; ++k) {
    list.push_back(engine_pipe.encode_j(pset.pos()[k], 64.0 * pset.mass()[k]));
  }
  const std::vector<Vec3d> list_targets(pset.pos().begin(),
                                        pset.pos().begin() + 64);
  expect_native_matches_reference(engine_pipe, list, list_targets, stage,
                                  "plummer-65k list");
  std::vector<RawForce> out(list_targets.size());
  engine_pipe.evaluate(list, list_targets, out, stage);
  for (const RawForce& r : out) EXPECT_FALSE(r.saturated);
}

TEST(Backend, NativeEvaluateCutsCoincidentEntries) {
  const Pipeline pipe = native_pipeline(test_scaling());
  const Vec3d xi{1.0, 2.0, -0.5};
  auto js = make_jset(pipe, xi, 40, 404);
  // Coincident copies of the first target in several lanes and blocks,
  // including a whole block of them; the second target meets none.
  for (const std::size_t k : {3, 8, 9, 17, 31}) js[k] = pipe.encode_j(xi, 1.1);
  for (std::size_t k = 16; k < 24; ++k) js[k] = pipe.encode_j(xi, 0.4);
  const std::vector<Vec3d> targets = {xi, Vec3d{-2.0, 0.25, 1.5}};
  grape::EvalStage stage;
  expect_native_matches_reference(pipe, js, targets, stage, "coincident");
  // With eps == 0 the cut lanes have r^2 == 0 and must stay cut.
  const Pipeline unsoftened = native_pipeline(test_scaling(0.0));
  auto js0 = make_jset(unsoftened, xi, 40, 404);
  for (std::size_t k = 16; k < 24; ++k) js0[k] = unsoftened.encode_j(xi, 0.4);
  expect_native_matches_reference(unsoftened, js0, targets, stage,
                                  "coincident, eps 0");
}

TEST(Backend, NativeEvaluateDivergentCornerSaturatesLikeReference) {
  PipelineScaling s;
  s.range_lo = -5e-155;
  s.range_hi = 5e-155;
  s.eps = 0.0;
  s.force_quantum = 0x1p-60;
  // In this window every non-coincident pair's rinv^3 overflows, so all
  // force counts are infinite; the potential quantum is chosen so that
  // only the divergent pair's potential count is.
  s.potential_quantum = 0x1p498;
  const Pipeline pipe = native_pipeline(s);
  const double q = pipe.position_quantum();
  ASSERT_LT(q, 1e-160);
  const std::size_t w = Pipeline::batch_width();
  // Two blocks of coincident entries, the second with one divergent
  // entry (3 codes along +x: (3q)^2 == 0.0) in its middle, then entries
  // on the +x side with finite potential counts (~3e4 each). The
  // divergent entry's own counts are all that can send its block down
  // the slow path.
  std::vector<JWord> js(2 * w, pipe.encode_j(Vec3d{0.0, 0.0, 0.0}, 1.0));
  js[w + 3] = pipe.encode_j(Vec3d{3.0 * q, 0.0, 0.0}, 1.0);
  for (std::size_t k = 0; k < 3; ++k) {
    js.push_back(pipe.encode_j(
        Vec3d{4e-155, (k % 2 == 0 ? 1.0 : -1.0) * 1e-155, 0.0}, 1.0));
  }
  const std::vector<Vec3d> targets = {Vec3d{0.0, 0.0, 0.0}};
  grape::EvalStage stage;
  std::vector<RawForce> out(1);
  pipe.evaluate(js, targets, out, stage);
  EXPECT_TRUE(out[0].saturated);
  EXPECT_EQ(out[0].acc[0], math::kAccumulatorRail);
  // The divergent pair, not a coincident one: its infinite potential
  // pins the well at the rail.
  EXPECT_EQ(out[0].pot, -math::kAccumulatorRail);
  expect_native_matches_reference(pipe, js, targets, stage, "divergent");
  // Without it the potential is finite: the corner alone sets the rail.
  js[w + 3] = js[w + 2];
  pipe.evaluate(js, targets, out, stage);
  EXPECT_GT(out[0].pot, -math::kAccumulatorRail);
  expect_native_matches_reference(pipe, js, targets, stage,
                                  "divergent entry replaced");

  // A negative-mass and a zero-mass divergent entry in one block with
  // finite-potential pairs whose three components are all nonzero. The
  // corner's counts take the sign of m (m < 0 flips it, m == 0 counts as
  // positive): a zero component adds 0, not the NaN of inf * 0 (a +rail
  // count), and the massless corner adds a -rail count to the potential,
  // not the +rail of a NaN count. Every prefix, so that later entries
  // cannot hide a wrong count.
  std::vector<JWord> mixed;
  for (std::size_t k = 0; k < w; ++k) {
    const double sy = k % 2 == 0 ? 1.0 : -1.0;
    mixed.push_back(
        pipe.encode_j(Vec3d{4e-155, sy * 1e-155, -2e-155}, 1.0));
  }
  mixed[2] = pipe.encode_j(Vec3d{3.0 * q, 0.0, 0.0}, -1.0);
  mixed[5] = pipe.encode_j(Vec3d{0.0, -3.0 * q, 0.0}, 0.0);
  for (std::size_t n = 1; n <= mixed.size(); ++n) {
    expect_native_matches_reference(pipe, {mixed.data(), n}, targets, stage,
                                    "signed corners, length " +
                                        std::to_string(n));
  }
}

TEST(Backend, NativeEvaluateCountsAboveBlockBound) {
  // A force quantum of 2^-60: a unit-mass j at distance 1 contributes
  // 2^60 counts, above the block drain's 2^59 bound but below the
  // rail. On this quantum the capacity check holds for no unit mass, so
  // the tile drains: the block holding that count adds its counts one
  // at a time, the others their exact block sums.
  PipelineScaling s = test_scaling();
  s.force_quantum = 0x1p-60;
  s.potential_quantum = 0x1p-60;
  const Pipeline pipe = native_pipeline(s);
  const Vec3d xi{0.0, 0.0, 0.0};
  std::vector<JWord> js;
  math::Rng rng(505);
  for (std::size_t k = 0; k < 29; ++k) {
    js.push_back(pipe.encode_j(4.0 * rng.on_unit_sphere(), 1e-9));
  }
  js[11] = pipe.encode_j(Vec3d{1.0, 0.0, 0.0}, 1.0);
  const RawForce one = native_reference(pipe, {&js[11], 1}, xi);
  ASSERT_GT(one.acc[0], std::int64_t{1} << 59);
  ASSERT_FALSE(one.saturated);
  // Counts between 2^51 and 2^59: only the split rounding,
  // h + rint(c - h) with h a multiple of 2^32, gets these exact.
  js[3] = pipe.encode_j(Vec3d{0.0, 0.0, -1.0}, 0.0513);
  js[20] = pipe.encode_j(Vec3d{0.0, 1.0, 0.0}, 0.1077);
  for (const std::size_t k : {std::size_t{3}, std::size_t{20}}) {
    const RawForce mid = native_reference(pipe, {&js[k], 1}, xi);
    const std::int64_t c = std::max(std::abs(mid.acc[1]), std::abs(mid.acc[2]));
    ASSERT_GT(c, std::int64_t{1} << 51) << k;
    ASSERT_LT(c, std::int64_t{1} << 59) << k;
  }
  grape::EvalStage stage;
  const std::vector<Vec3d> targets = {xi};
  expect_native_matches_reference(pipe, js, targets, stage,
                                  "counts above 2^59");
  EXPECT_EQ(stage.fallback_tiles, 1u);
  std::vector<RawForce> out(1);
  pipe.evaluate(js, targets, out, stage);
  EXPECT_FALSE(out[0].saturated);
}

TEST(Backend, NativeEvaluateNearRailMatchesReference) {
  // A heavy near j-word in the first block puts the x accumulator within
  // batch_width() * 2^59 of the rail; every later block must take the
  // per-interaction path. With the heavy tail — each block's first half
  // of sources at +x (r ~ 2), its second half at -x (r ~ 2.5) — the
  // accumulator crosses the rail in the first half of a block, latches,
  // and steps back below it in the second, so a block sum clamped only
  // at its end would differ; with a light tail it stays below.
  PipelineScaling s = test_scaling();
  s.force_quantum = 0x1p-60;
  s.potential_quantum = 0x1p-30;
  const Pipeline pipe = native_pipeline(s);
  const Vec3d xi{0.0, 0.0, 0.0};
  const double near_rail =
      static_cast<double>(math::kAccumulatorRail) -
      0.5 * static_cast<double>(Pipeline::batch_width()) * 0x1p59;
  // |a| = m / r^2 at r = 1, so the count is m / quantum.
  const double heavy = near_rail * s.force_quantum;
  for (const double tail_mass : {1.0, 1e-7}) {
    std::vector<JWord> js;
    js.push_back(pipe.encode_j(Vec3d{1.0, 0.0, 0.0}, heavy));
    const std::size_t w = Pipeline::batch_width();
    for (std::size_t k = 1; k < 12 * w; ++k) {
      const double offset = 1e-3 * static_cast<double>(k);
      const double x = k % w < w / 2 ? 2.0 + offset : -2.5 - offset;
      js.push_back(pipe.encode_j(Vec3d{x, 0.3, -0.2}, tail_mass));
    }
    const RawForce first = native_reference(pipe, {js.data(), 1}, xi);
    ASSERT_GT(first.acc[0],
              math::kAccumulatorRail -
                  static_cast<std::int64_t>(Pipeline::batch_width()) *
                      (std::int64_t{1} << 59));
    grape::EvalStage stage;
    const std::vector<Vec3d> targets = {xi};
    // Every prefix: once the rail is hit, clamping forgets the history,
    // so a wrong fast block could be hidden by the end of the stream.
    for (std::size_t n = 1; n <= js.size(); ++n) {
      expect_native_matches_reference(
          pipe, {js.data(), n}, targets, stage,
          "tail mass " + std::to_string(tail_mass) + ", length " +
              std::to_string(n));
    }
    std::vector<RawForce> out(1);
    pipe.evaluate(js, targets, out, stage);
    EXPECT_EQ(out[0].saturated, tail_mass > 0.5) << tail_mass;
  }
}

/// The unit, 2^44 counts, in which the rail tests below place their
/// registers under the rail.
constexpr int kTileBoundShift = 44;

TEST(Backend, NativeFastTileHoldsCountsUpTo2To62) {
  // Two counts between 2^61 and 2^62 in one tile, one at +x and one at
  // -x, among light pairs: above the block drain's 2^59 bound. Their
  // magnitudes, summed over the tile's pairs and registers with 2^44
  // slack per pair, stay under the rail. Counts this large are far
  // outside the capacity check (it holds every count under 2^50), so
  // the tile drains, and its blocks add these counts one at a time.
  PipelineScaling s = test_scaling();
  s.force_quantum = 0x1p-60;
  s.potential_quantum = 0x1p-30;
  const Pipeline pipe = native_pipeline(s);
  const Vec3d xi{0.0, 0.0, 0.0};
  std::vector<JWord> js;
  math::Rng rng(606);
  for (std::size_t k = 0; k < 45; ++k) {
    js.push_back(pipe.encode_j(4.0 * rng.on_unit_sphere(), 1e-6));
  }
  js[9] = pipe.encode_j(Vec3d{1.0, 0.0, 0.0}, 3.1);
  js[30] = pipe.encode_j(Vec3d{-1.0, 0.0, 0.0}, 2.3);
  double magnitude = 0.0;  // sum of |rounded count| over the tile
  for (const JWord& j : js) {
    const RawForce one = native_reference(pipe, {&j, 1}, xi);
    for (const std::int64_t c : {one.acc[0], one.acc[1], one.acc[2], one.pot}) {
      magnitude += std::fabs(static_cast<double>(c));
    }
  }
  for (const std::size_t k : {std::size_t{9}, std::size_t{30}}) {
    const RawForce one = native_reference(pipe, {&js[k], 1}, xi);
    ASSERT_GT(std::abs(one.acc[0]), std::int64_t{1} << 61) << k;
    ASSERT_LT(std::abs(one.acc[0]), std::int64_t{1} << 62) << k;
  }
  // The bound's rounding (up to half a unit of 2^44 per lane) and its
  // n + 1 units over the tile's padded n lanes: below 2 units per j-word
  // plus 8.
  const double slack = std::ldexp(static_cast<double>(2 * js.size() + 8),
                                 kTileBoundShift);
  ASSERT_LT(magnitude + slack, static_cast<double>(math::kAccumulatorRail));
  grape::EvalStage stage;
  const std::vector<Vec3d> targets = {xi, Vec3d{0.25, -0.5, 0.125}};
  expect_native_matches_reference(pipe, js, targets, stage,
                                  "counts up to 2^62");
  EXPECT_EQ(stage.fallback_tiles, targets.size());
  std::vector<RawForce> out(targets.size());
  pipe.evaluate(js, targets, out, stage);
  EXPECT_FALSE(out[0].saturated);
}

TEST(Backend, NativeTileBoundAtTheRailMatchesReference) {
  // A window of width 16 (quantum 2^-28) and eps 0, so that a j-word at
  // distance 1 along an axis has dx = 1, r^2 = 1, rinv = 1 exactly: its
  // force count is m * 2^60, exactly. The first tile's heavy j-word puts
  // a register at R0; the second tile's j-words each add
  // c = 2^48 + 2^43 - 2^20 to it. For every prefix of n2 pairs of the
  // second tile (padded to n), with T = 16 n2 + n + 1, R0 sits at
  // rail - 2^44 (T + delta): delta = 1, 0 and -1 end just under the
  // rail, delta = -n closer to it, and at a delta of half the tile's
  // growth the pairs cross it and latch. With eps == 0 there is no
  // capacity, so both tiles drain, and the drain's blocks near the rail
  // add their counts one at a time. Along +x and along -y, so both signs
  // and two registers; every prefix against the reference, latch
  // included.
  PipelineScaling s;
  s.range_lo = -8.0;
  s.range_hi = 8.0;
  s.eps = 0.0;
  s.force_quantum = 0x1p-60;
  s.potential_quantum = 0x1p-30;
  const Pipeline pipe = native_pipeline(s);
  ASSERT_EQ(pipe.position_quantum(), 0x1p-28);
  const Vec3d xi{0.0, 0.0, 0.0};
  const std::size_t tile = Pipeline::tile_length();
  const std::size_t w = Pipeline::batch_width();
  const double tail_count = 0x1p48 + 0x1p43 - 0x1p20;
  const std::vector<Vec3d> targets = {xi};
  grape::EvalStage stage;
  for (const Vec3d axis : {Vec3d{1.0, 0.0, 0.0}, Vec3d{0.0, -1.0, 0.0}}) {
    for (std::size_t n2 = 1; n2 <= tile; ++n2) {
      const std::size_t padded = (n2 + w - 1) / w * w;
      const std::int64_t bound = static_cast<std::int64_t>(16 * n2 + padded + 1);
      const std::int64_t half_growth = static_cast<std::int64_t>(8 * n2 + 1);
      for (const std::int64_t delta :
           {std::int64_t{1}, std::int64_t{0}, std::int64_t{-1},
            -static_cast<std::int64_t>(padded), -half_growth}) {
        const std::int64_t r0 =
            math::kAccumulatorRail - ((bound + delta) << kTileBoundShift);
        std::vector<JWord> js;
        js.push_back(pipe.encode_j(axis, std::ldexp(static_cast<double>(r0), -60)));
        while (js.size() < tile) {
          js.push_back(pipe.encode_j(Vec3d{0.5, 0.5, 0.5}, 0.0));
        }
        for (std::size_t k = 0; k < n2; ++k) {
          js.push_back(pipe.encode_j(axis, std::ldexp(tail_count, -60)));
        }
        const std::string what = "axis (" + std::to_string(axis.x) + ", " +
                                 std::to_string(axis.y) + "), n2 " +
                                 std::to_string(n2) + ", delta " +
                                 std::to_string(delta);
        const RawForce first = native_reference(pipe, {js.data(), tile}, xi);
        ASSERT_EQ(std::max(std::abs(first.acc[0]), std::abs(first.acc[1])), r0)
            << what;
        expect_native_matches_reference(pipe, js, targets, stage, what);
        if (delta == -half_growth && n2 > 1) {
          EXPECT_TRUE(native_reference(pipe, js, xi).saturated) << what;
        }
      }
    }
  }
}

TEST(Backend, NativeTileRefusesHugeCountsWhoseBoundsWrap) {
  // Five potential counts of ~2^915, each (2^64 - 1) / 5 above
  // bits(1.5 * 2^96) as integers, so that a sum of their bits wraps: a
  // tile sum must not see them. With eps == 0 the tile drains, and the
  // pairs saturate the potential register, as the reference does.
  // j-words at distance 1 along x in a width-16 window (rinv = 1
  // exactly), and a force quantum so large that the force counts vanish
  // beside them.
  PipelineScaling s;
  s.range_lo = -8.0;
  s.range_hi = 8.0;
  s.eps = 0.0;
  s.force_quantum = 0x1p500;
  s.potential_quantum = 0x1p-1000;
  const Pipeline pipe = native_pipeline(s);
  const std::uint64_t share = ~std::uint64_t{0} / 5;
  const double count = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(0x1.8p96) + share);
  ASSERT_TRUE(std::isfinite(count));
  std::vector<JWord> js(
      5, pipe.encode_j(Vec3d{1.0, 0.0, 0.0}, std::ldexp(count, -1000)));
  const Vec3d xi{0.0, 0.0, 0.0};
  const std::vector<Vec3d> targets = {xi};
  grape::EvalStage stage;
  expect_native_matches_reference(pipe, js, targets, stage, "wrapped bound");
  std::vector<RawForce> out(1);
  pipe.evaluate(js, targets, out, stage);
  EXPECT_TRUE(out[0].saturated);
  EXPECT_EQ(out[0].pot, -math::kAccumulatorRail);
  EXPECT_EQ(stage.fallback_tiles, 2u);  // both evaluate calls
}

TEST(Backend, NativeDivergentPairRefusesOnlyItsTile) {
  // eps == 0 and a window in which r^2 of a 3-code separation underflows
  // to zero. There every other non-coincident pair's rinv^3 overflows, so
  // the tiles around the divergent pair hold coincident (cut) j-words
  // only, whose counts are zero. With eps == 0 every tile drains: the
  // divergent pair's block adds its counts one at a time, patched, and
  // the other blocks their zero sums until the registers sit at the
  // rail. Every prefix, latch included.
  PipelineScaling s;
  s.range_lo = -5e-155;
  s.range_hi = 5e-155;
  s.eps = 0.0;
  s.force_quantum = 0x1p-60;
  s.potential_quantum = 0x1p498;
  const Pipeline pipe = native_pipeline(s);
  const double q = pipe.position_quantum();
  const std::size_t tile = Pipeline::tile_length();
  std::vector<JWord> js(2 * tile + 7,
                        pipe.encode_j(Vec3d{0.0, 0.0, 0.0}, 1.0));
  js[tile + 100] = pipe.encode_j(Vec3d{3.0 * q, 0.0, 0.0}, 1.0);
  const std::vector<Vec3d> targets = {Vec3d{0.0, 0.0, 0.0}};
  grape::EvalStage stage;
  for (std::size_t n = 1; n <= js.size(); ++n) {
    expect_native_matches_reference(pipe, {js.data(), n}, targets, stage,
                                    "divergent tile, length " +
                                        std::to_string(n));
  }
  std::vector<RawForce> out(1);
  pipe.evaluate(js, targets, out, stage);
  EXPECT_TRUE(out[0].saturated);
  EXPECT_EQ(out[0].acc[0], math::kAccumulatorRail);
  EXPECT_EQ(out[0].pot, -math::kAccumulatorRail);
}

/// The mass the bit-exact datapath holds for a mass m (a word of the
/// F = 8 format lns_pipeline builds by default). In a window of width 16
/// with eps 0, a j-word at distance 1 along an axis has d = 1 and
/// r^2 = 1 exactly, so both power units give 1: it adds lns_mass(m) /
/// force quantum to that axis' register and -lns_mass(m) / potential
/// quantum to the potential.
double lns_mass(double m) {
  static const math::LnsFormat lns(8);
  return lns.quantize(m);
}

/// The size, in units of 2^44, by which the rail tests below place and
/// wrap their pairs, of a pair whose nonzero counts are one force count
/// c and the potential count p: the integer
/// bits(|c| + |p| + 1.5 * 2^96) - bits(1.5 * 2^96), which is
/// rint((|c| + |p|) / 2^44) while |c| + |p| < 2^95.
std::uint64_t pair_bound_units(double c, double p) {
  return std::bit_cast<std::uint64_t>(std::fabs(c) + std::fabs(p) + 0x1.8p96) -
         std::bit_cast<std::uint64_t>(0x1.8p96);
}

/// J-words at `pos` (distance 1 along an axis, see lns_mass) whose force
/// counts on that axis, on the force quantum 2^-60, sum to within 2^42
/// below `count`: each the LNS mass just under the rest.
std::vector<JWord> lns_preload(const Pipeline& pipe, const Vec3d& pos,
                               double count) {
  std::vector<JWord> js;
  while (count > 0x1p42) {
    const double m = lns_mass(count * (1.0 - 0x1p-7) * 0x1p-60);
    js.push_back(pipe.encode_j(pos, m));
    count -= m * 0x1p60;
  }
  return js;
}

TEST(Backend, LnsTileBoundAtTheRailMatchesOracle) {
  // As NativeTileBoundAtTheRailMatchesReference, on the bit-exact
  // datapath: the window of width 16 with eps 0, so that a j-word at
  // distance 1 along an axis adds lns_mass(m) * 2^60 counts. The second
  // tile's j-words each add c ~ 16.45 * 2^44. The first tile's j-words
  // (masses are LNS words, so a few of them, see lns_preload) put a
  // register at R0 with (rail - R0) >> 44 = T + delta, where
  // T = 16 n2 + n + 1 for the second tile's n2 pairs padded to n:
  // delta = 1, 0 and -1 end just under the rail, delta = -n closer to
  // it, and at a delta of half the tile's growth the pairs cross it and
  // latch. With eps == 0 there is no capacity, so the second tile
  // always drains. Along +x and along -y, every prefix of the second
  // tile against the oracle, latch included, and the second tile's path
  // from the stage's counts.
  PipelineScaling s;
  s.range_lo = -8.0;
  s.range_hi = 8.0;
  s.eps = 0.0;
  s.force_quantum = 0x1p-60;
  s.potential_quantum = 0x1p-30;
  const Pipeline pipe = lns_pipeline(s);
  ASSERT_EQ(pipe.position_quantum(), 0x1p-28);
  const double tail_mass = lns_mass(16.45 * 0x1p-16);
  const double tail_count = tail_mass * 0x1p60;
  ASSERT_EQ(pair_bound_units(tail_count, tail_mass * 0x1p30), 16u);
  ASSERT_GT(tail_count / 0x1p44 - 16.0, 0.4);
  const Vec3d xi{0.0, 0.0, 0.0};
  const std::size_t tile = Pipeline::tile_length();
  const std::size_t w = Pipeline::batch_width();
  const std::vector<Vec3d> targets = {xi};
  const oracle::LnsOracle scalar(pipe);
  grape::EvalStage stage;
  std::vector<RawForce> out(1);
  // The stage's fallback tiles over one evaluate of `js`.
  const auto fallback_tiles = [&](std::span<const JWord> js) {
    stage.fallback_tiles = 0;
    pipe.evaluate(js, targets, out, stage);
    return stage.fallback_tiles;
  };
  for (const Vec3d axis : {Vec3d{1.0, 0.0, 0.0}, Vec3d{0.0, -1.0, 0.0}}) {
    for (std::size_t n2 = 1; n2 <= tile; ++n2) {
      const std::size_t padded = (n2 + w - 1) / w * w;
      const std::int64_t bound = static_cast<std::int64_t>(16 * n2 + padded + 1);
      const std::int64_t half_growth = static_cast<std::int64_t>(8 * n2 + 1);
      for (const std::int64_t delta :
           {std::int64_t{1}, std::int64_t{0}, std::int64_t{-1},
            -static_cast<std::int64_t>(padded), -half_growth}) {
        const std::int64_t room = bound + delta;
        std::vector<JWord> js = lns_preload(
            pipe, axis,
            static_cast<double>(math::kAccumulatorRail -
                                (room << kTileBoundShift)) -
                0x1p43);
        const std::string what = "axis (" + std::to_string(axis.x) + ", " +
                                 std::to_string(axis.y) + "), n2 " +
                                 std::to_string(n2) + ", delta " +
                                 std::to_string(delta);
        ASSERT_LE(js.size(), 6u) << what;
        const RawForce first = scalar.evaluate(js, xi);
        while (js.size() < tile) {
          js.push_back(pipe.encode_j(Vec3d{0.5, 0.5, 0.5}, 0.0));
        }
        const std::int64_t r0 =
            std::max(std::abs(first.acc[0]), std::abs(first.acc[1]));
        ASSERT_EQ((math::kAccumulatorRail - r0) >> kTileBoundShift, room)
            << what;
        const std::uint64_t first_fallback = fallback_tiles(js);
        for (std::size_t k = 0; k < n2; ++k) {
          js.push_back(pipe.encode_j(axis, tail_mass));
        }
        expect_lns_matches_oracle(pipe, js, targets, stage, what);
        EXPECT_EQ(first_fallback, 1u) << what;
        EXPECT_EQ(fallback_tiles(js) - first_fallback, 1u) << what;
        if (delta == -half_growth && n2 > 1) {
          EXPECT_TRUE(scalar.evaluate(js, xi).saturated) << what;
        }
      }
    }
  }
}

TEST(Backend, LnsTileRefusesHugeCountsWhoseBoundsWrap) {
  // As NativeTileRefusesHugeCountsWhoseBoundsWrap, on the bit-exact
  // datapath: potential counts whose pair bounds, as integers above
  // bits(1.5 * 2^96), sum with the tile's n + 1 past 2^64 and wrap. With
  // eps == 0 the tile drains, and the pairs saturate the potential
  // register, as the oracle does. The masses are LNS words, so five
  // j-words of counts ~2^915 bring the sum to ~2^49 below the wrap and
  // lighter ones (pair bounds below 2^51) close the gap. J-words at
  // distance 1 along x in a width-16 window with eps 0 (see lns_mass),
  // and a force quantum so large that the force counts vanish.
  PipelineScaling s;
  s.range_lo = -8.0;
  s.range_hi = 8.0;
  s.eps = 0.0;
  s.force_quantum = 0x1p500;
  s.potential_quantum = 0x1p-1000;
  const Pipeline pipe = lns_pipeline(s);
  const auto units = [](double m) {
    return pair_bound_units(m * 0x1p-500, m * 0x1p1000);
  };
  const std::uint64_t magic = std::bit_cast<std::uint64_t>(0x1.8p96);
  const Vec3d at{1.0, 0.0, 0.0};
  const double huge = lns_mass(0x1p-85);
  std::vector<JWord> js(4, pipe.encode_j(at, huge));
  std::uint64_t sum = 4 * units(huge);
  const double last = lns_mass(
      std::bit_cast<double>(magic + (0 - sum - (std::uint64_t{1} << 49))) *
      0x1p-1000);
  ASSERT_TRUE(std::isfinite(last * 0x1p1000));
  js.push_back(pipe.encode_j(at, last));
  sum += units(last);
  // The tile is padded to 16 lanes: its bound adds n + 1 = 17.
  std::uint64_t rest = (0 - sum - 17) + (std::uint64_t{1} << 17);
  ASSERT_LT(rest, std::uint64_t{1} << 51);
  while (rest > (std::uint64_t{1} << 16)) {
    const double m = lns_mass(static_cast<double>(rest) * (1.0 - 0x1p-7) *
                              0x1p44 * 0x1p-1000);
    ASSERT_LE(units(m), rest);
    js.push_back(pipe.encode_j(at, m));
    sum += units(m);
    rest -= units(m);
  }
  ASSERT_LE(js.size(), 16u);
  ASSERT_GT(js.size(), 8u);
  while (js.size() < 16) js.push_back(pipe.encode_j(at, 0.0));
  const std::uint64_t bound = sum + 17;
  ASSERT_LE(bound, static_cast<std::uint64_t>(math::kAccumulatorRail >>
                                              kTileBoundShift));
  const Vec3d xi{0.0, 0.0, 0.0};
  const std::vector<Vec3d> targets = {xi};
  grape::EvalStage stage;
  expect_lns_matches_oracle(pipe, js, targets, stage, "wrapped bound");
  std::vector<RawForce> out(1);
  pipe.evaluate(js, targets, out, stage);
  EXPECT_TRUE(out[0].saturated);
  EXPECT_EQ(out[0].pot, -math::kAccumulatorRail);
  EXPECT_EQ(stage.fallback_tiles, 2u);  // both evaluate calls
}

TEST(Backend, LnsFlaggedLaneRefusesOnlyItsTile) {
  // A window whose position quantum is subnormal (as
  // LnsLanesFallBackOnSubnormalDifferences), where every live pair is
  // flagged: the first and third tiles hold zero-mass j-words and
  // coincident ones (cut), whose lanes are not live, and the second
  // tile also one live j-word a few codes from the target, whose
  // differences are subnormal. The second tile is recomputed one pair
  // at a time; every prefix against the oracle. The softening
  // (r^2 = eps^2 = 2^-1000) and the quanta keep that pair's counts near
  // 2^40; the softening bound on these quanta is ~2^560 counts per unit
  // mass, so the capacity check holds for no tile and all three drain.
  // The normal windows below have the capacity.
  PipelineScaling s;
  s.range_lo = -2e-299;
  s.range_hi = 2e-299;
  s.eps = 0x1p-500;
  s.force_quantum = 0x1p440;
  s.potential_quantum = 0x1p460;
  const Pipeline pipe = lns_pipeline(s);
  const double q = pipe.position_quantum();
  ASSERT_LT(q, std::numeric_limits<double>::min());
  const std::size_t tile = Pipeline::tile_length();
  std::vector<JWord> js;
  math::Rng rng(1101);
  for (std::size_t k = 0; k < 2 * tile + 7; ++k) {
    const double code = std::floor(rng.uniform(-40.0, 40.0));
    const Vec3d pos = k % 3 == 0 ? Vec3d{0.0, 0.0, 0.0}
                                 : Vec3d{code * q, q, -code * q};
    js.push_back(pipe.encode_j(pos, k % 3 == 0 ? 1.5 : 0.0));
  }
  js[tile + 100] = pipe.encode_j(Vec3d{5.0 * q, 3.0 * q, -5.0 * q}, 1.2);
  const RawForce one =
      oracle::LnsOracle(pipe).evaluate({&js[tile + 100], 1}, Vec3d{});
  ASSERT_FALSE(one.saturated);
  for (const std::int64_t c : {one.acc[0], one.acc[1], one.acc[2], one.pot}) {
    ASSERT_GT(std::abs(c), std::int64_t{1} << 36);
    ASSERT_LT(std::abs(c), std::int64_t{1} << 44);
  }
  const std::vector<Vec3d> targets = {Vec3d{0.0, 0.0, 0.0}};
  grape::EvalStage stage;
  for (std::size_t n = 1; n <= js.size(); n += n < tile ? 37 : 1) {
    expect_lns_matches_oracle(pipe, {js.data(), n}, targets, stage,
                              "subnormal window, length " + std::to_string(n));
  }
  stage.tiles = stage.fallback_tiles = 0;
  std::vector<RawForce> out(1);
  pipe.evaluate(js, targets, out, stage);
  EXPECT_EQ(stage.tiles, 3u);
  EXPECT_EQ(stage.fallback_tiles, 3u);

  // A normal window with live lanes in every tile: one bottom-of-range
  // mass in the second tile (as LnsLanesFallBackBelowTheTableSplit)
  // refuses that tile for each target, and only that one.
  const Pipeline normal = lns_pipeline(test_scaling());
  const std::vector<Vec3d> two = {Vec3d{0.3, -0.2, 0.1},
                                  Vec3d{-2.0, 1.0, 0.5}};
  auto live = make_signed_jset(normal, two, 2 * tile + 9, 1102);
  live[tile + 17] = normal.encode_j(Vec3d{1.0, 2.0, 3.0}, 2.5e-308);
  stage.tiles = stage.fallback_tiles = 0;
  expect_lns_matches_oracle(normal, live, two, stage, "bottom-of-range mass");
  EXPECT_EQ(stage.tiles, 6u);
  EXPECT_EQ(stage.fallback_tiles, 2u);

  // A flagged lane whose lane counts are finite and small, so that only
  // the flag refuses its tile: in the window of width 16 with eps 0 (see
  // lns_mass), a mass of 1.5 * 2^-1023 at distance 1 has products that
  // decode at q = -1023, below the table split. The lanes read 0 there;
  // the datapath's value is subnormal, 0.75 counts of the quanta
  // 2^-1022, which round to 1. The light j-words around it add ~2^22.
  PipelineScaling w16;
  w16.range_lo = -8.0;
  w16.range_hi = 8.0;
  w16.eps = 0.0;
  w16.force_quantum = 0x1p-1022;
  w16.potential_quantum = 0x1p-1022;
  const Pipeline tiny = lns_pipeline(w16);
  std::vector<JWord> light;
  for (std::size_t k = 0; k < 20; ++k) {
    light.push_back(tiny.encode_j(
        Vec3d{k % 2 == 0 ? 1.0 : -1.0, k % 3 == 0 ? 1.0 : 0.0, 0.0},
        std::ldexp(1.0 + 0.01 * static_cast<double>(k), -1000)));
  }
  light[13] = tiny.encode_j(Vec3d{0.0, 1.0, 0.0}, 0x1.8p-1023);
  const std::vector<Vec3d> origin = {Vec3d{0.0, 0.0, 0.0}};
  const RawForce subnormal =
      oracle::LnsOracle(tiny).evaluate({&light[13], 1}, origin[0]);
  ASSERT_EQ(subnormal.acc[1], 1);
  ASSERT_EQ(subnormal.pot, -1);
  stage.tiles = stage.fallback_tiles = 0;
  expect_lns_matches_oracle(tiny, light, origin, stage, "subnormal product");
  EXPECT_EQ(stage.fallback_tiles, 1u);
}

/// A pipeline of `num` with `backend` on the window [-1, 1] and the
/// quanta derived from the softening bound for mass scale 1.
Pipeline bound_pipeline(PipelineNumerics num, BackendKind backend,
                        double eps) {
  num.backend = backend;
  PipelineScaling s;
  s.range_lo = -1.0;
  s.range_hi = 1.0;
  s.eps = eps;
  grape::derive_scaling_quanta(s, 1.0);
  Pipeline pipe{num};
  pipe.configure(s);
  return pipe;
}

TEST(Backend, CountsStayUnderTheCapAtThePairMaximizer) {
  // A force component m d / (d^2 + eps^2)^(3/2) peaks at d = eps /
  // sqrt(2), and the potential m / (r^2 + eps^2)^(1/2) at the smallest
  // separation, one position code. One j-word at a time, of mass 1 and
  // -0.75, at distances eps / sqrt(2) (1 + k / 400), k in [-20, 20],
  // along the six axis directions and the eight diagonals, and one code
  // along +x: every count stays under |m| times its register's cap — the
  // caps the capacity check uses — and the largest reaches 90 % of it,
  // so the cap is not vacuous. Both backends, on the default numerics
  // and the GRAPE-3-class preset (lns_frac_bits 5, no table narrowing);
  // every call is inside the capacity and takes the tile sums.
  const double eps = 0.01;
  const double s3 = 1.0 / std::sqrt(3.0);
  std::vector<Vec3d> directions;
  for (const double sign : {1.0, -1.0}) {
    directions.push_back(Vec3d{sign, 0.0, 0.0});
    directions.push_back(Vec3d{0.0, sign, 0.0});
    directions.push_back(Vec3d{0.0, 0.0, sign});
  }
  for (const double sx : {1.0, -1.0}) {
    for (const double sy : {1.0, -1.0}) {
      for (const double sz : {1.0, -1.0}) {
        directions.push_back(Vec3d{sx * s3, sy * s3, sz * s3});
      }
    }
  }
  const Vec3d origin{0.0, 0.0, 0.0};
  const std::vector<Vec3d> targets = {origin};
  for (const PipelineNumerics& preset :
       {PipelineNumerics{}, PipelineNumerics::grape3()}) {
    for (const BackendKind backend :
         {BackendKind::BitExact, BackendKind::Native}) {
      const Pipeline pipe = bound_pipeline(preset, backend, eps);
      const std::string variant =
          std::string(grape::backend_name(backend)) + ", F " +
          std::to_string(preset.lns_frac_bits);
      const double force_cap = pipe.force_count_cap();
      const double potential_cap = pipe.potential_count_cap();
      ASSERT_EQ(pipe.count_cap(), std::max(force_cap, potential_cap));
      ASSERT_LE(pipe.count_cap() + 1.0, Pipeline::count_capacity()) << variant;
      grape::EvalStage stage;
      std::vector<RawForce> out(1);
      double largest_force = 0.0;
      double largest_potential = 0.0;
      for (const double m : {1.0, -0.75}) {
        const auto check = [&](const Vec3d& at, const std::string& where) {
          const JWord j = pipe.encode_j(at, m);
          pipe.evaluate({&j, 1}, targets, out, stage);
          for (std::size_t c = 0; c < 3; ++c) {
            const double count = std::fabs(static_cast<double>(out[0].acc[c]));
            EXPECT_LE(count, std::fabs(m) * force_cap)
                << variant << ", " << where << ", component " << c;
            largest_force = std::max(largest_force, count / std::fabs(m));
          }
          const double pot = std::fabs(static_cast<double>(out[0].pot));
          EXPECT_LE(pot, std::fabs(m) * potential_cap) << variant << ", " << where;
          largest_potential = std::max(largest_potential, pot / std::fabs(m));
          EXPECT_FALSE(out[0].saturated) << variant << ", " << where;
        };
        for (std::size_t d = 0; d < directions.size(); ++d) {
          for (int k = -20; k <= 20; ++k) {
            const double r = eps / std::sqrt(2.0) *
                             (1.0 + static_cast<double>(k) / 400.0);
            check(r * directions[d], "direction " + std::to_string(d) +
                                         ", k " + std::to_string(k));
          }
        }
        check(Vec3d{pipe.position_quantum(), 0.0, 0.0}, "one code");
      }
      EXPECT_GE(largest_force, 0.9 * force_cap) << variant;
      EXPECT_GE(largest_potential, 0.9 * potential_cap) << variant;
      EXPECT_EQ(stage.fallback_tiles, 0u) << variant;
      EXPECT_GT(stage.tiles, 0u) << variant;
    }
  }
}

TEST(Backend, CapacityCrossedMidCallDrainsFromThatTile) {
  // Quanta derived for mass scale 1, and a stream of five tiles (the last
  // ragged) whose words each carry 1 / 1280 of the mass the capacity
  // check admits, a third of them negative: the running sum of |m|
  // passes the capacity inside the third tile. The first two tiles take
  // the tile sums; from the third on every tile drains, for each of the
  // three targets (two on j-words, one free). Counts and latch bitwise
  // the reference (Native) and the oracle (BitExact), for the whole
  // stream and for the first two tiles alone.
  const std::size_t tile = Pipeline::tile_length();
  const std::size_t n = 5 * tile - 3;
  for (const BackendKind backend :
       {BackendKind::BitExact, BackendKind::Native}) {
    const Pipeline pipe = bound_pipeline(PipelineNumerics{}, backend, 0.05);
    const auto variant = std::string(grape::backend_name(backend));
    const double m =
        Pipeline::count_capacity() / pipe.count_cap() / (2.5 * static_cast<double>(tile));
    math::Rng rng(1303);
    std::vector<JWord> js;
    std::vector<Vec3d> pos;
    for (std::size_t k = 0; k < n; ++k) {
      pos.push_back(0.9 * rng.in_unit_ball());
      js.push_back(pipe.encode_j(pos.back(), k % 3 == 1 ? -m : m));
    }
    const std::vector<Vec3d> targets = {pos[5], pos[3 * tile + 40],
                                        Vec3d{0.1, -0.2, 0.05}};
    grape::EvalStage stage;
    const auto expect_matches = [&](std::span<const JWord> stream,
                                    const std::string& what) {
      if (backend == BackendKind::Native) {
        expect_native_matches_reference(pipe, stream, targets, stage, what);
      } else {
        expect_lns_matches_oracle(pipe, stream, targets, stage, what);
      }
    };
    expect_matches({js.data(), 2 * tile}, variant + ", two tiles");
    EXPECT_EQ(stage.tiles, 2 * targets.size()) << variant;
    EXPECT_EQ(stage.fallback_tiles, 0u) << variant;
    stage.tiles = stage.fallback_tiles = 0;
    expect_matches(js, variant + ", five tiles");
    EXPECT_EQ(stage.tiles, 5 * targets.size()) << variant;
    EXPECT_EQ(stage.fallback_tiles, 3 * targets.size()) << variant;
  }
}

TEST(Backend, NativeEvaluateMatchesReferenceAcrossLengthsAndTargets) {
  // Stream lengths around the block and the tile (1, 7, 8, 511, 512,
  // 513, 1031) against 1 to 5 targets, each a j-word of the stream (the
  // coincidence cut runs), on the test window and on the quanta the
  // engines install for a Plummer N = 65,536 snapshot.
  const auto pset =
      ic::make_plummer(ic::PlummerConfig{.n = 65536, .seed = 3});
  const model::Aabb box = pset.bounding_box();
  const Pipeline engine_pipe = native_pipeline(
      grape::snapshot_window(box.lo, box.hi, pset.mass()).scaling(0.02));
  const Pipeline test_pipe = native_pipeline(test_scaling());
  grape::EvalStage stage;
  for (const Pipeline* pipe : {&test_pipe, &engine_pipe}) {
    std::vector<JWord> all;
    for (std::size_t k = 0; k < 1031; ++k) {
      all.push_back(pipe->encode_j(pset.pos()[k], pset.mass()[k]));
    }
    for (const std::size_t len : {1, 7, 8, 511, 512, 513, 1031}) {
      for (std::size_t nt = 1; nt <= 5; ++nt) {
        std::vector<Vec3d> targets;
        for (std::size_t i = 0; i < nt; ++i) {
          targets.push_back(pset.pos()[(i * 211) % len]);
        }
        expect_native_matches_reference(
            *pipe, {all.data(), len}, targets, stage,
            std::string(pipe == &test_pipe ? "test" : "engine") +
                " window, length " + std::to_string(len) + ", targets " +
                std::to_string(nt));
      }
    }
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
    pipe.convert_raw(scalar.evaluate(js, replay.pos()[i]), replay.acc()[i],
                     replay.pot()[i]);
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
