#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "grape/host_reference.hpp"
#include "grape/pipeline.hpp"
#include "math/fixed.hpp"
#include "math/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace g5;
using grape::BackendKind;
using grape::JWord;
using grape::Pipeline;
using grape::PipelineNumerics;
using grape::PipelineScaling;
using grape::RawForce;
using grape::Vec3d;

/// One target's readout, converted to force and potential.
struct Readout {
  Vec3d acc;
  double pot = 0.0;
  bool saturated = false;
};

/// A j-stream through one pipeline slot loaded with `xi`, via the
/// device's entry point (Pipeline::evaluate).
Readout evaluate(const Pipeline& pipe, const Vec3d& xi,
                 std::span<const JWord> js) {
  grape::EvalStage stage;
  RawForce raw;
  pipe.evaluate(js, {&xi, 1}, {&raw, 1}, stage);
  Readout r;
  pipe.convert_raw(raw, r.acc, r.pot);
  r.saturated = raw.saturated;
  return r;
}

/// One pipeline cycle: a single j on one target.
Readout interact(const Pipeline& pipe, const Vec3d& xi, const JWord& j) {
  return evaluate(pipe, xi, {&j, 1});
}

PipelineScaling test_scaling(double eps = 0.0) {
  PipelineScaling s;
  s.range_lo = -10.0;
  s.range_hi = 10.0;
  s.eps = eps;
  s.force_quantum = 0x1p-30;
  s.potential_quantum = 0x1p-33;
  return s;
}

double pairwise_rms(const PipelineNumerics& numerics, std::size_t pairs) {
  Pipeline pipe(numerics);
  PipelineScaling s = test_scaling();
  s.force_quantum = 0x1p-27;
  pipe.configure(s);
  math::Rng rng(7);
  util::RunningStat err;
  for (std::size_t k = 0; k < pairs; ++k) {
    const Vec3d xi = 4.0 * rng.in_unit_ball();
    const double r = std::pow(10.0, rng.uniform(-3.5, 0.5));
    const Vec3d xj = xi + r * rng.on_unit_sphere();
    const double mj = std::pow(10.0, rng.uniform(-2.0, 0.0));
    const Readout st = interact(pipe, xi, pipe.encode_j(xj, mj));
    Vec3d ref;
    double pref;
    grape::pairwise(xi, xj, mj, 0.0, ref, pref);
    if (ref.norm() > 0.0) err.add((st.acc - ref).norm() / ref.norm());
  }
  return err.rms();
}

// THE calibration pin: the default format must land on the paper's
// "about 0.3%" pairwise error. If a format change moves this, the claim
// in Section 2 of the reproduction no longer holds.
TEST(Pipeline, DefaultFormatGivesPaperError) {
  const double rms = pairwise_rms(PipelineNumerics{}, 20000);
  EXPECT_GT(rms, 0.0020);
  EXPECT_LT(rms, 0.0045);
}

TEST(Pipeline, ErrorHalvesPerFormatBit) {
  PipelineNumerics coarse, fine;
  coarse.lns_frac_bits = 6;
  coarse.table_index_bits = 0;
  fine.lns_frac_bits = 10;
  fine.table_index_bits = 0;
  const double e_coarse = pairwise_rms(coarse, 8000);
  const double e_fine = pairwise_rms(fine, 8000);
  // 4 bits apart: expect ~16x; allow [8, 32].
  EXPECT_GT(e_coarse / e_fine, 8.0);
  EXPECT_LT(e_coarse / e_fine, 32.0);
}

TEST(Pipeline, NativeMatchesHostToPositionQuantum) {
  PipelineNumerics num;
  num.backend = grape::BackendKind::Native;
  Pipeline pipe(num);
  pipe.configure(test_scaling(0.01));
  math::Rng rng(5);
  for (int k = 0; k < 2000; ++k) {
    const Vec3d xi = 4.0 * rng.in_unit_ball();
    const Vec3d xj = 4.0 * rng.in_unit_ball();
    const double mj = rng.uniform(0.1, 1.0);
    const Readout st = interact(pipe, xi, pipe.encode_j(xj, mj));
    // Reference uses the same quantized coordinates: then the only error
    // left is the accumulator quantum.
    const double q = pipe.position_quantum();
    auto snap = [&](const Vec3d& v) {
      return Vec3d{std::nearbyint(v.x / q) * q, std::nearbyint(v.y / q) * q,
                   std::nearbyint(v.z / q) * q};
    };
    Vec3d ref;
    double pref;
    grape::pairwise(snap(xi), snap(xj), mj, 0.01, ref, pref);
    EXPECT_NEAR((st.acc - ref).norm(), 0.0, 1e-8);
    EXPECT_NEAR(st.pot, pref, 1e-9);
  }
}

TEST(Pipeline, SelfInteractionCutEntirely) {
  // The i == j cut: a coincident pair contributes neither force nor the
  // softened self-potential, so the host needs no correction.
  Pipeline pipe((PipelineNumerics()));
  pipe.configure(test_scaling(0.05));
  const Vec3d x{1.0, 2.0, 3.0};
  const Readout st = interact(pipe, x, pipe.encode_j(x, 2.0));
  EXPECT_EQ(st.acc, (Vec3d{}));
  EXPECT_DOUBLE_EQ(st.pot, 0.0);
}

TEST(Pipeline, SelfInteractionSkippedWhenUnsoftened) {
  Pipeline pipe((PipelineNumerics()));
  pipe.configure(test_scaling(0.0));
  const Vec3d x{1.0, 2.0, 3.0};
  const Readout st = interact(pipe, x, pipe.encode_j(x, 2.0));
  EXPECT_EQ(st.acc, (Vec3d{}));
  EXPECT_DOUBLE_EQ(st.pot, 0.0);
}

TEST(Pipeline, SofteningLimitsCloseForces) {
  Pipeline pipe((PipelineNumerics()));
  pipe.configure(test_scaling(0.1));
  const Vec3d xi{0.0, 0.0, 0.0};
  const Vec3d xj{1e-6, 0.0, 0.0};  // far below eps
  const Readout st = interact(pipe, xi, pipe.encode_j(xj, 1.0));
  // Softened force ~ m dx / eps^3 = 1e-6/1e-3 = 1e-3, not 1e12.
  EXPECT_LT(st.acc.norm(), 2e-3);
}

TEST(Pipeline, ForceIsAttractiveAndCentral) {
  Pipeline pipe((PipelineNumerics()));
  pipe.configure(test_scaling());
  const Vec3d xi{1.0, 1.0, 1.0};
  const Vec3d xj{2.0, 1.0, 1.0};
  const Readout st = interact(pipe, xi, pipe.encode_j(xj, 3.0));
  const Vec3d f = st.acc;
  EXPECT_GT(f.x, 0.0);  // pulled toward xj
  EXPECT_NEAR(f.y, 0.0, 1e-6);
  EXPECT_NEAR(f.z, 0.0, 1e-6);
  EXPECT_NEAR(f.x, 3.0, 0.05 * 3.0);
  EXPECT_NEAR(st.pot, -3.0, 0.05 * 3.0);
}

TEST(Pipeline, AccumulationOverStream) {
  // Sum over a j-stream matches the host sum within the format error
  // (partial cancellation makes the tolerance looser than pairwise).
  Pipeline pipe((PipelineNumerics()));
  pipe.configure(test_scaling(0.01));
  math::Rng rng(11);
  std::vector<Vec3d> js(256);
  std::vector<double> ms(256);
  for (std::size_t j = 0; j < js.size(); ++j) {
    js[j] = 3.0 * rng.in_unit_ball();
    ms[j] = rng.uniform(0.5, 1.5);
  }
  const Vec3d xi{0.3, -0.2, 0.1};
  std::vector<JWord> words(js.size());
  for (std::size_t j = 0; j < js.size(); ++j) {
    words[j] = pipe.encode_j(js[j], ms[j]);
  }
  const Readout st = evaluate(pipe, xi, words);
  Vec3d ref_acc[1];
  double ref_pot[1];
  grape::host_forces_on_targets({&xi, 1}, js, ms, 0.01, ref_acc, ref_pot);
  EXPECT_LT((st.acc - ref_acc[0]).norm() / ref_acc[0].norm(), 0.01);
  EXPECT_NEAR(st.pot, ref_pot[0],
              0.01 * std::fabs(ref_pot[0]));
}

TEST(Pipeline, SaturationFlagged) {
  Pipeline pipe((PipelineNumerics()));
  PipelineScaling s = test_scaling();
  s.force_quantum = 0x1p-100;  // absurd quantum: everything overflows
  pipe.configure(s);
  EXPECT_TRUE(
      interact(pipe, Vec3d{0, 0, 0}, pipe.encode_j(Vec3d{0.5, 0, 0}, 1.0))
          .saturated);
}

TEST(Pipeline, ConfigureValidation) {
  Pipeline pipe((PipelineNumerics()));
  PipelineScaling s = test_scaling();
  s.range_hi = s.range_lo;
  EXPECT_THROW(pipe.configure(s), std::invalid_argument);
  s = test_scaling();
  s.force_quantum = 0.0;
  EXPECT_THROW(pipe.configure(s), std::invalid_argument);
}

TEST(Pipeline, ConfigureRequiresPowerOfTwoQuanta) {
  // The Native pair loop and the LNS drain multiply by the reciprocals
  // of the quanta; only for normal powers of two is that the division.
  Pipeline pipe((PipelineNumerics()));
  const double bad[] = {1e-9,
                        3.0 * 0x1p-30,
                        std::nextafter(0x1p-30, 1.0),
                        -0x1p-30,
                        0x1p-1060,  // subnormal
                        std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()};
  for (const double q : bad) {
    PipelineScaling s = test_scaling();
    s.force_quantum = q;
    EXPECT_THROW(pipe.configure(s), std::invalid_argument) << "force " << q;
    s = test_scaling();
    s.potential_quantum = q;
    EXPECT_THROW(pipe.configure(s), std::invalid_argument) << "pot " << q;
  }
  for (const double q : {0x1p-1022, 0x1p-60, 1.0, 0x1p1023}) {
    PipelineScaling s = test_scaling();
    s.force_quantum = q;
    s.potential_quantum = q;
    EXPECT_NO_THROW(pipe.configure(s)) << q;
  }
  // A rejected scaling leaves the installed one in place.
  PipelineScaling s = test_scaling();
  pipe.configure(s);
  s.force_quantum = 1e-9;
  EXPECT_THROW(pipe.configure(s), std::invalid_argument);
  EXPECT_EQ(pipe.force_accumulator_quantum(), test_scaling().force_quantum);
}

TEST(Pipeline, DerivedQuantaArePowersOfTwoRoundedUp) {
  // Windows 1e-3 .. 1e3 and mass scales 1e-9 .. 1: each quantum is a
  // power of two, no finer than the policy's unrounded quantum
  // (m / width^2 and m / width, times 2^-34: the headroom never shrinks)
  // and less than twice it (at most one guard bit of resolution lost).
  Pipeline pipe((PipelineNumerics()));
  int cases = 0;
  for (double width = 1e-3; width <= 1e3 * 1.0001; width *= 1.7782794) {
    for (double m = 1e-9; m <= 1.0001; m *= 3.16227766) {
      PipelineScaling s;
      s.range_lo = -0.37 * width;
      s.range_hi = s.range_lo + width;
      grape::derive_scaling_quanta(s, m);
      const double w = s.range_hi - s.range_lo;
      const double unrounded[2] = {m / (w * w) * 0x1p-34, m / w * 0x1p-34};
      const double derived[2] = {s.force_quantum, s.potential_quantum};
      for (int k = 0; k < 2; ++k) {
        int e = 0;
        EXPECT_EQ(std::frexp(derived[k], &e), 0.5)
            << "width " << width << " mass " << m << " quantum " << k;
        EXPECT_GE(derived[k], unrounded[k]) << width << " " << m << " " << k;
        EXPECT_LT(derived[k], 2.0 * unrounded[k])
            << width << " " << m << " " << k;
      }
      EXPECT_NO_THROW(pipe.configure(s));
      ++cases;
    }
  }
  EXPECT_GT(cases, 100);
  // An exact power of two stays where it is.
  PipelineScaling s;
  s.range_lo = -1.0;
  s.range_hi = 1.0;
  grape::derive_scaling_quanta(s, 0.25);
  EXPECT_EQ(s.force_quantum, 0x1p-38);
  EXPECT_EQ(s.potential_quantum, 0x1p-37);
}

TEST(Pipeline, ConvertRawIsExactScaling) {
  // With power-of-two quanta the count-to-double conversion is
  // std::ldexp of the count, exactly, for every count a double holds.
  math::Rng rng(11);
  for (const int e : {-100, -60, -33, -1, 0, 7}) {
    Pipeline pipe((PipelineNumerics()));
    PipelineScaling s = test_scaling();
    s.force_quantum = std::ldexp(1.0, e);
    s.potential_quantum = std::ldexp(1.0, e - 3);
    pipe.configure(s);
    for (int k = 0; k < 2000; ++k) {
      RawForce raw;
      // Counts of every magnitude below 2^53, both signs.
      const int bits = k % 54;
      for (std::int64_t* c :
           {&raw.acc[0], &raw.acc[1], &raw.acc[2], &raw.pot}) {
        const double mag = std::floor(std::ldexp(rng.uniform(), bits));
        *c = static_cast<std::int64_t>(rng.uniform() < 0.5 ? -mag : mag);
      }
      Vec3d acc;
      double pot = 0.0;
      pipe.convert_raw(raw, acc, pot);
      for (std::size_t c = 0; c < 3; ++c) {
        ASSERT_EQ(acc[c], std::ldexp(static_cast<double>(raw.acc[c]), e))
            << "e " << e << " count " << raw.acc[c];
      }
      ASSERT_EQ(pot, std::ldexp(static_cast<double>(raw.pot), e - 3))
          << "e " << e << " count " << raw.pot;
    }
  }
}

TEST(Pipeline, SnapshotWindowMassScaleIsTotalAbsoluteMass) {
  // A 1/N-mass set with a zero-mass tracer (and a negative mass): the
  // mass scale is the sum of |m|, the most mass one call can stream —
  // not the smallest mass, which would make the headroom shrink as 1/N.
  const std::size_t n = 4096;
  std::vector<double> mass(n, 1.0 / static_cast<double>(n));
  mass[17] = 0.0;
  const Vec3d lo{-1.0, -1.0, -1.0};
  const Vec3d hi{1.0, 1.0, 1.0};
  const double rest = static_cast<double>(n - 1) / static_cast<double>(n);
  EXPECT_NEAR(grape::snapshot_window(lo, hi, mass).mass_scale, rest, 1e-15);
  mass[40] = -0.5;
  EXPECT_NEAR(grape::snapshot_window(lo, hi, mass).mass_scale,
              rest - 1.0 / static_cast<double>(n) + 0.5, 1e-15);
  // Without any mass the scale falls back to 1.
  const std::vector<double> massless(8, 0.0);
  EXPECT_EQ(grape::snapshot_window(lo, hi, massless).mass_scale, 1.0);
  EXPECT_EQ(grape::snapshot_window(lo, hi, {}).mass_scale, 1.0);
}

TEST(Pipeline, DerivedQuantaFromTheSofteningBound) {
  // eps > 0: each quantum is a power of two in [b, 2b), b the softening
  // bound of the mass scale m over 2^49 (m * 2 / (3 sqrt(3) eps^2) for
  // the force, m / eps for the potential), whatever the window.
  for (const double eps : {1e-4, 0.003, 0.02, 0.5, 7.0}) {
    for (const double m : {1e-9, 1.0 / 3.0, 1.0, 250.0}) {
      PipelineScaling s;
      s.range_lo = -3.0;
      s.range_hi = 5.0;
      s.eps = eps;
      grape::derive_scaling_quanta(s, m);
      const double bound[2] = {m * 2.0 / (3.0 * std::sqrt(3.0) * eps * eps),
                               m / eps};
      const double derived[2] = {s.force_quantum, s.potential_quantum};
      for (int k = 0; k < 2; ++k) {
        int e = 0;
        EXPECT_EQ(std::frexp(derived[k], &e), 0.5) << eps << " " << m;
        EXPECT_GE(derived[k] * 0x1p49, bound[k] * (1.0 - 1e-15))
            << eps << " " << m << " " << k;
        EXPECT_LT(derived[k] * 0x1p49, 2.0 * bound[k])
            << eps << " " << m << " " << k;
      }
    }
  }
  // A softening whose bound has no normal quanta (eps^2 underflows)
  // keeps the window's quanta, as eps == 0 does.
  PipelineScaling tiny;
  tiny.range_lo = -1.0;
  tiny.range_hi = 1.0;
  tiny.eps = 1e-170;
  grape::derive_scaling_quanta(tiny, 0.25);
  EXPECT_EQ(tiny.force_quantum, 0x1p-38);
  EXPECT_EQ(tiny.potential_quantum, 0x1p-37);
}

TEST(Pipeline, QuantaHeadroomAtThePaperN) {
  // Pure arithmetic at the paper's N = 2,159,038, equal masses 1/N: every
  // interaction list partitions the total mass, so no list streams more
  // than the mass scale, in at most N words. On the quanta
  // snapshot_window installs, that whole mass passes Pipeline::evaluate's
  // capacity check on both backends, in the default and the GRAPE-3-class
  // log format: no admissible list can bring a register near the rail,
  // and every one takes the tile sums. A unit force is still at least
  // 2^30 counts.
  const std::size_t n = 2159038;
  const std::vector<double> mass(n, 1.0 / static_cast<double>(n));
  const grape::SnapshotWindow window = grape::snapshot_window(
      Vec3d{-40.0, -35.0, -38.0}, Vec3d{41.0, 37.0, 36.0}, mass);
  EXPECT_NEAR(window.mass_scale, 1.0, 1e-9);
  EXPECT_LT(Pipeline::count_capacity() * 0x1p12,
            static_cast<double>(math::kAccumulatorRail));
  for (const double eps : {0.005, 0.02, 0.1}) {
    for (PipelineNumerics num : {PipelineNumerics{}, PipelineNumerics::grape3()}) {
      for (const BackendKind backend :
           {BackendKind::BitExact, BackendKind::Native}) {
        num.backend = backend;
        Pipeline pipe(num);
        pipe.configure(window.scaling(eps));
        const std::string what = "eps " + std::to_string(eps) + ", F " +
                                 std::to_string(num.lns_frac_bits) + ", " +
                                 std::string(grape::backend_name(backend));
        EXPECT_LE(window.mass_scale * pipe.count_cap() + static_cast<double>(n),
                  Pipeline::count_capacity())
            << what;
        EXPECT_GE(1.0 / pipe.force_accumulator_quantum(), 0x1p30) << what;
      }
    }
  }
}

TEST(Pipeline, PositionBitsBoundedByDoubleSignificand) {
  // The Native path stages coordinate codes as doubles; their
  // differences are exact only up to 53-bit codes.
  for (const BackendKind backend : {BackendKind::BitExact, BackendKind::Native}) {
    PipelineNumerics num;
    num.backend = backend;
    num.position_bits = 54;
    EXPECT_THROW(Pipeline{num}, std::invalid_argument);
    num.position_bits = 62;
    EXPECT_THROW(Pipeline{num}, std::invalid_argument);
    num.position_bits = 53;
    EXPECT_NO_THROW(Pipeline{num});
  }
  EXPECT_NO_THROW(Pipeline{PipelineNumerics::grape3()});  // 20 bits
  EXPECT_EQ(PipelineNumerics{}.position_bits, 32);        // the paper's
}

TEST(Pipeline, MassQuantizedInLogFormat) {
  Pipeline pipe((PipelineNumerics()));
  pipe.configure(test_scaling());
  const JWord j = pipe.encode_j(Vec3d{1, 1, 1}, 0.123456789);
  EXPECT_FALSE(j.mass.zero);
  // The decoded mass is within the log-format relative step.
  // (accessible indirectly: force from unit distance = m)
  EXPECT_NEAR(interact(pipe, Vec3d{1, 1, 0}, j).acc.norm(), 0.123456789,
              0.123456789 * 0.01);
}

}  // namespace
