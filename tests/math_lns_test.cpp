#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <utility>
#include <vector>

#include "math/lns.hpp"
#include "math/rng.hpp"

namespace {

using g5::math::LnsFormat;
using g5::math::LnsValue;

TEST(Lns, ZeroAndSpecials) {
  const LnsFormat fmt(8);
  EXPECT_DOUBLE_EQ(fmt.to_double(fmt.from_double(0.0)), 0.0);
  EXPECT_DOUBLE_EQ(fmt.to_double(LnsValue::make_zero()), 0.0);
  // Non-finite inputs collapse to zero (the hardware cannot represent them
  // and the datapath never produces them).
  EXPECT_DOUBLE_EQ(fmt.to_double(fmt.from_double(
                       std::numeric_limits<double>::infinity())), 0.0);
  EXPECT_DOUBLE_EQ(fmt.to_double(fmt.from_double(
                       std::numeric_limits<double>::quiet_NaN())), 0.0);
}

TEST(Lns, SignsPreserved) {
  const LnsFormat fmt(10);
  EXPECT_GT(fmt.quantize(3.7), 0.0);
  EXPECT_LT(fmt.quantize(-3.7), 0.0);
  EXPECT_DOUBLE_EQ(fmt.quantize(-3.7), -fmt.quantize(3.7));
}

TEST(Lns, PowersOfTwoExact) {
  const LnsFormat fmt(8);
  for (int e = -20; e <= 20; ++e) {
    const double x = std::ldexp(1.0, e);
    EXPECT_DOUBLE_EQ(fmt.quantize(x), x) << "2^" << e;
  }
}

class LnsWidth : public ::testing::TestWithParam<int> {};

TEST_P(LnsWidth, RoundTripRelativeErrorBound) {
  const int frac = GetParam();
  const LnsFormat fmt(frac);
  // Half-step in log space -> relative bound (2^(2^-F/2) - 1).
  const double bound = std::exp2(0.5 * std::ldexp(1.0, -frac)) - 1.0;
  g5::math::Rng rng(frac);
  double worst = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = std::pow(10.0, rng.uniform(-12.0, 12.0));
    const double q = fmt.quantize(x);
    worst = std::max(worst, std::fabs(q - x) / x);
  }
  EXPECT_LE(worst, bound * (1.0 + 1e-9));
  // And the bound is nearly attained (quantization is not finer than F).
  EXPECT_GE(worst, 0.5 * bound);
}

TEST_P(LnsWidth, RelativeStepFormula) {
  const int frac = GetParam();
  const LnsFormat fmt(frac);
  EXPECT_NEAR(fmt.relative_step(), std::exp2(std::ldexp(1.0, -frac)) - 1.0,
              1e-15);
}

INSTANTIATE_TEST_SUITE_P(Widths, LnsWidth,
                         ::testing::Values(4, 6, 8, 10, 12, 16));

TEST(Lns, MulIsExactInFormat) {
  const LnsFormat fmt(8);
  g5::math::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const double a = std::pow(10.0, rng.uniform(-6.0, 6.0)) *
                     (rng.uniform() < 0.5 ? -1.0 : 1.0);
    const double b = std::pow(10.0, rng.uniform(-6.0, 6.0));
    const LnsValue va = fmt.from_double(a);
    const LnsValue vb = fmt.from_double(b);
    // The product of the *quantized* values, which mul computes exactly.
    const double expected = fmt.to_double(va) * fmt.to_double(vb);
    const double got = fmt.to_double(fmt.mul(va, vb));
    EXPECT_NEAR(got, expected, std::fabs(expected) * 1e-12);
  }
}

TEST(Lns, MulWithZero) {
  const LnsFormat fmt(8);
  const LnsValue z = fmt.from_double(0.0);
  const LnsValue v = fmt.from_double(5.0);
  EXPECT_DOUBLE_EQ(fmt.to_double(fmt.mul(z, v)), 0.0);
  EXPECT_DOUBLE_EQ(fmt.to_double(fmt.mul(v, z)), 0.0);
}

TEST(Lns, SquareMatchesSelfMul) {
  const LnsFormat fmt(9);
  g5::math::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = std::pow(10.0, rng.uniform(-5.0, 5.0)) *
                     (rng.uniform() < 0.5 ? -1.0 : 1.0);
    const LnsValue v = fmt.from_double(x);
    EXPECT_DOUBLE_EQ(fmt.to_double(fmt.square(v)),
                     fmt.to_double(fmt.mul(v, v)));
    EXPECT_GE(fmt.to_double(fmt.square(v)), 0.0);
  }
}

TEST(Lns, PowNeg32Accuracy) {
  const LnsFormat fmt(10);
  g5::math::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double x = std::pow(10.0, rng.uniform(-6.0, 6.0));
    const LnsValue v = fmt.from_double(x);
    const double xq = fmt.to_double(v);
    const double expected = std::pow(xq, -1.5);
    const double got = fmt.to_double(fmt.pow_neg_3_2(v));
    // One extra rounding of the log word (half ulp in log space).
    const double tol = expected * (std::exp2(std::ldexp(1.0, -10)) - 1.0);
    EXPECT_NEAR(got, expected, tol + expected * 1e-12);
  }
}

TEST(Lns, PowNeg12Accuracy) {
  const LnsFormat fmt(10);
  g5::math::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const double x = std::pow(10.0, rng.uniform(-6.0, 6.0));
    const LnsValue v = fmt.from_double(x);
    const double xq = fmt.to_double(v);
    const double expected = 1.0 / std::sqrt(xq);
    const double got = fmt.to_double(fmt.pow_neg_1_2(v));
    const double tol = expected * (std::exp2(std::ldexp(1.0, -10)) - 1.0);
    EXPECT_NEAR(got, expected, tol + expected * 1e-12);
  }
}

TEST(Lns, PowOfZeroSaturatesHigh) {
  const LnsFormat fmt(8);
  const LnsValue z = LnsValue::make_zero();
  EXPECT_GT(fmt.to_double(fmt.pow_neg_3_2(z)), 1e100);
  EXPECT_GT(fmt.to_double(fmt.pow_neg_1_2(z)), 1e100);
}

TEST(Lns, ExponentSaturation) {
  const LnsFormat fmt(8, 6);  // tiny exponent range: |log2| < 32
  const double huge = std::ldexp(1.0, 100);
  const double q = fmt.quantize(huge);
  EXPECT_LT(q, huge);           // clamped
  EXPECT_GT(q, std::ldexp(1.0, 30));
  // Far below the representable range the word underflows to the tagged
  // zero (hardware flush-to-zero), not the smallest representable value.
  const double tiny = std::ldexp(1.0, -100);
  EXPECT_TRUE(fmt.from_double(tiny).zero);
  EXPECT_DOUBLE_EQ(fmt.quantize(tiny), 0.0);
}

TEST(Lns, RangeEdgeSemantics) {
  const LnsFormat fmt(8, 6);  // bottom code at log2 = -32
  // Exactly the bottom code is representable and kept (rounding, not
  // clamping, happens at the edge)...
  const LnsValue bottom = fmt.from_double(std::ldexp(1.0, -32));
  EXPECT_FALSE(bottom.zero);
  EXPECT_DOUBLE_EQ(fmt.to_double(bottom), std::ldexp(1.0, -32));
  // ...while anything rounding below it flushes to zero, for both signs.
  const double below = 0.99 * std::ldexp(1.0, -32);
  EXPECT_TRUE(fmt.from_double(below).zero);
  EXPECT_TRUE(fmt.from_double(-below).zero);
  // The top edge saturates (clamps to the largest code); it never flushes.
  const LnsValue top = fmt.from_double(std::ldexp(1.0, 100));
  EXPECT_FALSE(top.zero);
  EXPECT_NEAR(std::log2(fmt.to_double(top)), 32.0, 0.01);
  const LnsValue top_neg = fmt.from_double(-std::ldexp(1.0, 100));
  EXPECT_FALSE(top_neg.zero);
  EXPECT_EQ(top_neg.sign, -1);
  EXPECT_EQ(top_neg.logval, top.logval);
}

TEST(Lns, CoarseTableDegradesPow) {
  LnsFormat full(10);
  LnsFormat coarse(10);
  coarse.set_table_index_bits(4);
  g5::math::Rng rng(13);
  double err_full = 0.0, err_coarse = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const double x = std::pow(10.0, rng.uniform(-3.0, 3.0));
    const double expected = std::pow(x, -1.5);
    err_full += std::fabs(full.to_double(full.pow_neg_3_2(
                    full.from_double(x))) - expected) / expected;
    err_coarse += std::fabs(coarse.to_double(coarse.pow_neg_3_2(
                      coarse.from_double(x))) - expected) / expected;
  }
  EXPECT_GT(err_coarse, 2.0 * err_full);
}

TEST(Lns, CoarseTableAppliesToBothPowerUnits) {
  // One physical lookup table feeds both power units, so the coarse-table
  // grid rounding must hit r^(-1/2) exactly as it hits r^(-3/2): inputs
  // that collapse onto the same table index produce identical outputs
  // from each unit.
  LnsFormat coarse(10);
  coarse.set_table_index_bits(4);  // grid step 2^6 = 64 logval counts
  LnsValue a, b;
  a.zero = b.zero = false;
  a.sign = b.sign = 1;
  a.logval = g5::math::LnsCode::from_bits(1000);  // both round to 1024
  b.logval = g5::math::LnsCode::from_bits(1020);
  EXPECT_EQ(coarse.pow_neg_3_2(a).logval, coarse.pow_neg_3_2(b).logval);
  EXPECT_EQ(coarse.pow_neg_1_2(a).logval, coarse.pow_neg_1_2(b).logval);

  // And the potential unit degrades with the table exactly like the force
  // unit does (the regression the probe's codec-error split relies on).
  LnsFormat full(10);
  g5::math::Rng rng(17);
  double err_full = 0.0, err_coarse = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const double x = std::pow(10.0, rng.uniform(-3.0, 3.0));
    const double expected = 1.0 / std::sqrt(x);
    err_full += std::fabs(full.to_double(full.pow_neg_1_2(
                    full.from_double(x))) - expected) / expected;
    err_coarse += std::fabs(coarse.to_double(coarse.pow_neg_1_2(
                      coarse.from_double(x))) - expected) / expected;
  }
  EXPECT_GT(err_coarse, 2.0 * err_full);
}

TEST(Lns, DecodeTableBitwiseMatchesExp2) {
  // to_double's split evaluation (exp2 fraction table + ldexp by the
  // integer part) must be bitwise-identical to the direct std::exp2 over
  // the entire logval domain of the default format — the batched pipeline
  // kernel relies on this for bit-exactness against the scalar datapath.
  const LnsFormat fmt(8);  // exp_bits 12 -> logval in [-2^19, 2^19)
  const std::int64_t lo = -(std::int64_t{1} << 19);
  const std::int64_t hi = std::int64_t{1} << 19;
  for (std::int64_t lv = lo; lv < hi; ++lv) {
    LnsValue v;
    v.zero = false;
    v.sign = (lv & 1) != 0 ? -1 : 1;
    v.logval = g5::math::LnsCode::from_bits(static_cast<std::int32_t>(lv));
    const double direct =
        static_cast<double>(v.sign) *
        std::exp2(std::ldexp(static_cast<double>(v.logval.bits()), -8));
    const double got = fmt.to_double(v);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(direct))
        << "logval " << lv;
  }
}

TEST(Lns, TableBitsValidation) {
  LnsFormat fmt(8);
  EXPECT_NO_THROW(fmt.set_table_index_bits(0));
  EXPECT_NO_THROW(fmt.set_table_index_bits(8));
  EXPECT_THROW(fmt.set_table_index_bits(-1), std::invalid_argument);
  EXPECT_THROW(fmt.set_table_index_bits(9), std::invalid_argument);
}

TEST(Lns, ConstructorValidation) {
  EXPECT_THROW(LnsFormat(0), std::invalid_argument);
  EXPECT_THROW(LnsFormat(17), std::invalid_argument);
  EXPECT_NO_THROW(LnsFormat(16));
  EXPECT_THROW(LnsFormat(25), std::invalid_argument);
  EXPECT_THROW(LnsFormat(8, 2), std::invalid_argument);
  EXPECT_THROW(LnsFormat(8, 20), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Exact-rounding reference. The encoder is defined as the exactly rounded
// word round(log2|v| * 2^F). This reference shares nothing with
// LnsFormat's tables: it evaluates each rounding boundary
// t_k = 2^((2k-1) / 2^(F+1)) as a double-double Taylor sum of exp(a ln2)
// (~2^-100 relative), asserts that the boundary sits clear of the double
// grid by far more than that error, and normalises each input with
// std::frexp.
// ---------------------------------------------------------------------

struct DoubleDouble {
  double hi = 0.0;
  double lo = 0.0;
};

DoubleDouble two_sum(double a, double b) {
  const double s = a + b;
  const double bb = s - a;
  return {s, (a - (s - bb)) + (b - bb)};
}

DoubleDouble dd_add(DoubleDouble x, DoubleDouble y) {
  DoubleDouble s = two_sum(x.hi, y.hi);
  const DoubleDouble t = two_sum(x.lo, y.lo);
  s = two_sum(s.hi, s.lo + t.hi);
  return two_sum(s.hi, s.lo + t.lo);
}

DoubleDouble dd_mul(DoubleDouble x, DoubleDouble y) {
  const double p = x.hi * y.hi;
  const double e = std::fma(x.hi, y.hi, -p);
  return two_sum(p, e + (x.hi * y.lo + x.lo * y.hi));
}

DoubleDouble dd_div(DoubleDouble x, double d) {
  const double q = x.hi / d;
  const double p = q * d;
  const double r = (x.hi - p) - std::fma(q, d, -p) + x.lo;
  return two_sum(q, r / d);
}

/// 2^a for a in (0, 1), to ~2^-100 relative.
DoubleDouble dd_exp2(double a) {
  const DoubleDouble ln2{0x1.62e42fefa39efp-1, 0x1.abc9e3b39803fp-56};
  const DoubleDouble r = dd_mul(ln2, DoubleDouble{a, 0.0});
  DoubleDouble term{1.0, 0.0};
  DoubleDouble sum{1.0, 0.0};
  for (int n = 1; n < 60 && term.hi > 0x1p-120; ++n) {
    term = dd_div(dd_mul(term, r), static_cast<double>(n));
    sum = dd_add(sum, term);
  }
  return sum;
}

/// Per k = 1 .. 2^F, the smallest 52-bit mantissa field M with
/// 1 + M * 2^-52 above t_k (ascending).
std::vector<std::uint64_t> reference_thresholds(int f) {
  std::vector<std::uint64_t> out;
  for (std::int64_t k = 1; k <= (std::int64_t{1} << f); ++k) {
    const DoubleDouble t =
        dd_exp2(std::ldexp(static_cast<double>(2 * k - 1), -(f + 1)));
    // t.hi is in (1, 2), so (t.hi - 1) * 2^52 is an integer and
    // t.lo * 2^52 is the boundary's offset from it in mantissa ulps.
    const double field = std::ldexp(t.hi - 1.0, 52);
    const double offset = std::ldexp(t.lo, 52);
    EXPECT_GT(std::fabs(offset), 0x1p-30) << "F " << f << " k " << k;
    out.push_back(static_cast<std::uint64_t>(field) +
                  static_cast<std::uint64_t>(offset > 0.0));
  }
  return out;
}

/// round(log2|x| * 2^F) for finite x != 0, from the reference thresholds.
std::int64_t reference_code(double x, int f,
                            const std::vector<std::uint64_t>& thresholds) {
  int exponent = 0;
  const double m = 2.0 * std::frexp(std::fabs(x), &exponent);  // [1, 2)
  const auto field = static_cast<std::uint64_t>(std::ldexp(m - 1.0, 52));
  const auto above = static_cast<std::int64_t>(
      std::upper_bound(thresholds.begin(), thresholds.end(), field) -
      thresholds.begin());
  return static_cast<std::int64_t>(exponent - 1) * (std::int64_t{1} << f) +
         above;
}

class LnsExactRounding : public ::testing::TestWithParam<int> {};

TEST_P(LnsExactRounding, EveryThresholdPlusMinus64UlpsAllExponents) {
  const int f = GetParam();
  const LnsFormat fmt(f);
  const std::vector<std::uint64_t> thresholds = reference_thresholds(f);
  const std::int64_t scale = std::int64_t{1} << f;
  // 2^e for every normal exponent: m * 2^e is then an exact product.
  std::vector<double> pow2;
  for (int e = -1022; e <= 1023; ++e) pow2.push_back(std::ldexp(1.0, e));
  std::int64_t checked = 0;
  std::int64_t mismatches = 0;
  double first_bad = 0.0;
  const auto check = [&](double x, std::int64_t expected) {
    const LnsValue w = fmt.from_double(x);
    const bool ok = !w.zero && w.logval.bits() == expected &&
                    w.sign == (x < 0.0 ? -1 : 1);
    if (!ok && mismatches++ == 0) first_bad = x;
    ++checked;
  };
  for (const std::uint64_t t : thresholds) {
    for (std::int64_t j = -64; j <= 64; ++j) {
      // Normal inputs: the same mantissa at every binary exponent.
      const auto field = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(t) + j);
      const double m = 1.0 + std::ldexp(static_cast<double>(field), -52);
      const std::int64_t code = reference_code(m, f, thresholds);
      std::int64_t expected = code - 1022 * scale;
      for (std::size_t i = 0; i < pow2.size(); ++i, expected += scale) {
        check((i & 1) != 0 ? -m * pow2[i] : m * pow2[i], expected);
      }
      // Subnormal inputs: a p-bit integer significand S at 2^-1074; the
      // boundary on its coarser grid is the first S above t_k.
      for (int p = 1; p <= 52; ++p) {
        const int drop = 53 - p;
        const std::uint64_t significand = (std::uint64_t{1} << 52) | t;
        const auto s_star = static_cast<std::int64_t>(
            (significand + (std::uint64_t{1} << drop) - 1) >> drop);
        const std::int64_t s = s_star + j;
        if (s <= 0) continue;
        const double x = std::ldexp(static_cast<double>(s), -1074);
        check(x, reference_code(x, f, thresholds));
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << checked << " inputs; first "
                           << std::hexfloat << first_bad;
}

INSTANTIATE_TEST_SUITE_P(Fractions, LnsExactRounding,
                         ::testing::Values(5, 8, 10));

TEST(Lns, EncodeSpecialsAndRangeEdges) {
  const LnsFormat fmt(8);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double x : {0.0, -0.0, kInf, -kInf, kNan, -kNan}) {
    const LnsValue w = fmt.from_double(x);
    EXPECT_TRUE(w.zero) << x;
    EXPECT_EQ(w.sign, 1) << x;
  }
  // The extreme finite doubles of the default format: exactly rounded,
  // neither flushed nor saturated.
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(fmt.from_double(denorm_min).logval.bits(), -1074 * 256);
  EXPECT_EQ(fmt.from_double(-denorm_min).sign, -1);
  EXPECT_EQ(fmt.from_double(std::numeric_limits<double>::max()).logval.bits(),
            1024 * 256);

  // exp 6: codes in [-32 * 256, 32 * 256).
  const LnsFormat narrow(8, 6);
  const std::vector<std::uint64_t> t = reference_thresholds(8);
  // Flush boundary: the bottom code -8192 covers magnitudes from the
  // boundary 2^-33 * t_256 up; the double just below it rounds to -8193
  // and flushes to the tagged zero, for both signs.
  const double keep =
      std::ldexp(1.0 + std::ldexp(static_cast<double>(t[255]), -52), -33);
  const double flush = std::nextafter(keep, 0.0);
  for (const double sign : {1.0, -1.0}) {
    const LnsValue kept = narrow.from_double(sign * keep);
    EXPECT_FALSE(kept.zero);
    EXPECT_EQ(kept.logval.bits(), -8192);
    EXPECT_EQ(kept.sign, sign < 0.0 ? -1 : 1);
    EXPECT_TRUE(narrow.from_double(sign * flush).zero);
  }
  // Saturation: the top code 8191 starts at the boundary 2^31 * t_255;
  // just below it rounds to 8190, and everything above clamps to 8191
  // (never flushes), for both signs.
  const double top =
      std::ldexp(1.0 + std::ldexp(static_cast<double>(t[254]), -52), 31);
  EXPECT_EQ(narrow.from_double(top).logval.bits(), 8191);
  EXPECT_EQ(narrow.from_double(std::nextafter(top, 0.0)).logval.bits(), 8190);
  for (const double x : {std::ldexp(1.0, 32), std::ldexp(1.0, 100),
                         std::numeric_limits<double>::max()}) {
    for (const double sign : {1.0, -1.0}) {
      const LnsValue w = narrow.from_double(sign * x);
      EXPECT_FALSE(w.zero);
      EXPECT_EQ(w.logval.bits(), 8191);
      EXPECT_EQ(w.sign, sign < 0.0 ? -1 : 1);
    }
  }
}

TEST(Lns, AgreesWithLibmFormulaAwayFromThresholds) {
  // The encoder this codec replaced, nearbyint(log2|v| * 2^F), rounds
  // log2 before scaling, so its flip points drift a few ulps from the
  // exact boundaries. On log-uniform inputs across the double range the
  // two must agree except (rarely) right next to a boundary.
  constexpr int kFrac = 8;
  const LnsFormat fmt(kFrac);
  const std::vector<std::uint64_t> thresholds = reference_thresholds(kFrac);
  g5::math::Rng rng(2026);
  constexpr int kInputs = 1 << 22;
  int disagreements = 0;
  for (int i = 0; i < kInputs; ++i) {
    const double x = std::exp2(rng.uniform(-1070.0, 1020.0)) *
                     (rng.uniform() < 0.5 ? -1.0 : 1.0);
    const double old_code =
        std::nearbyint(std::ldexp(std::log2(std::fabs(x)), kFrac));
    const std::int32_t code = fmt.from_double(x).logval.bits();
    if (static_cast<double>(code) == old_code) continue;
    ++disagreements;
    int exponent = 0;
    const double m = 2.0 * std::frexp(std::fabs(x), &exponent);
    const auto field = static_cast<std::int64_t>(std::ldexp(m - 1.0, 52));
    std::int64_t nearest = std::numeric_limits<std::int64_t>::max();
    for (const std::uint64_t t : thresholds) {
      nearest = std::min(
          nearest, std::abs(static_cast<std::int64_t>(t) - field));
    }
    EXPECT_LE(nearest, 64) << std::hexfloat << x;
  }
  std::cout << "libm formula disagreements: " << disagreements << " of "
            << kInputs << "\n";
  RecordProperty("libm_disagreements", disagreements);
}

TEST(Lns, DecodeRangeEdgesMatchExp2) {
  // The exponent-field decode against std::exp2 at the edges of the
  // narrowest and widest fractions: both ends of the word range and the
  // normal/subnormal and overflow switch-over points of the split.
  for (const auto& [frac, exp_bits] :
       {std::pair{5, 4}, std::pair{5, 12}, std::pair{16, 12},
        std::pair{16, 16}}) {
    const LnsFormat fmt(frac, exp_bits);
    const std::int64_t lo = g5::math::lns_min_log(frac, exp_bits);
    const std::int64_t hi = g5::math::lns_max_log(frac, exp_bits);
    const std::int64_t one = std::int64_t{1} << frac;
    const std::int64_t centres[] = {lo, hi, 0, -1022 * one, -1021 * one,
                                    1023 * one};
    for (const std::int64_t c : centres) {
      for (std::int64_t lv = std::max(lo, c - one - 2);
           lv <= std::min(hi, c + one + 2); ++lv) {
        LnsValue v;
        v.zero = false;
        v.sign = (lv & 1) != 0 ? -1 : 1;
        v.logval = g5::math::LnsCode::from_bits(static_cast<std::int32_t>(lv));
        const double direct =
            static_cast<double>(v.sign) *
            std::exp2(std::ldexp(static_cast<double>(lv), -frac));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(fmt.to_double(v)),
                  std::bit_cast<std::uint64_t>(direct))
            << "F " << frac << " exp " << exp_bits << " logval " << lv;
      }
    }
  }
}

TEST(Lns, PowerUnitsMatchPlainReference) {
  // The power units against their plain definition, written here
  // independently of the branch-free log-domain ALU they run on (and
  // the bit-exact lanes with them): the log word on the table grid by a
  // shift pair, times -3 or -1, halved with ties away from zero by a
  // sign split, saturated into the format.
  for (const auto& [frac, table] : {std::pair{5, 0}, std::pair{8, 7},
                                    std::pair{10, 4}, std::pair{12, 7},
                                    std::pair{16, 7}}) {
    LnsFormat fmt(frac);
    fmt.set_table_index_bits(table);
    const std::int64_t lo = g5::math::lns_min_log(frac, 12);
    const std::int64_t hi = g5::math::lns_max_log(frac, 12);
    const auto grid = [&](std::int64_t l) {
      if (table == 0 || table >= frac) return l;
      const int drop = frac - table;
      return ((l + (std::int64_t{1} << (drop - 1))) >> drop) << drop;
    };
    const auto half_away = [](std::int64_t n) {
      return n >= 0 ? (n + 1) / 2 : -((-n + 1) / 2);
    };
    const auto saturate = [&](std::int64_t l) {
      return std::min(std::max(l, lo), hi);
    };
    std::vector<std::int64_t> logs;
    for (std::int64_t l = -700; l <= 700; ++l) logs.push_back(l);
    for (std::int64_t l = lo; l <= hi; l += (std::int64_t{1} << frac) + 13) {
      logs.push_back(l);
    }
    logs.push_back(hi);
    for (const std::int64_t l : logs) {
      LnsValue v;
      v.zero = false;
      v.logval = g5::math::LnsCode::from_bits(static_cast<std::int32_t>(l));
      ASSERT_EQ(fmt.pow_neg_3_2(v).logval.wide(),
                saturate(half_away(-3 * grid(l))))
          << "F " << frac << " table " << table << " logval " << l;
      ASSERT_EQ(fmt.pow_neg_1_2(v).logval.wide(),
                saturate(half_away(-grid(l))))
          << "F " << frac << " table " << table << " logval " << l;
    }
  }
}

TEST(Lns, LaneFormsMatchScalarAndFlagOnlyTheirFallbacks) {
  // encode_lane / decode_lane are the branch-free forms the bit-exact
  // pipeline kernel runs on. Wherever they do not flag they must give
  // exactly the scalar word and double; they may flag only where the
  // scalar conversions take their own branches (a subnormal or
  // non-finite input, a decode outside the table split).
  using g5::math::LnsLane;
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -0x1.fffffffffffffp-1023,
                             std::numeric_limits<double>::min(),
                             -std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             1.0,
                             -3.0};
  for (const int frac : {5, 8, 12, 16}) {
    const LnsFormat fmt(frac);
    g5::math::Rng rng(static_cast<std::uint64_t>(frac));
    std::vector<double> inputs(std::begin(specials), std::end(specials));
    for (int k = 0; k < 20000; ++k) {
      inputs.push_back(std::bit_cast<double>(rng.next_u64()));
    }
    for (const double v : inputs) {
      std::uint64_t bad = 0;
      const LnsLane w = fmt.encode_lane(v, bad);
      const bool special = v != 0.0 && !std::isnormal(v);
      ASSERT_EQ(static_cast<std::int64_t>(bad) < 0, special)
          << "F " << frac << " v " << v;
      if (special) continue;
      const LnsValue s = fmt.from_double(v);
      ASSERT_EQ(w.live == 0, s.zero) << "F " << frac << " v " << v;
      ASSERT_TRUE(w.live == 0 || w.live == ~std::uint64_t{0});
      if (s.zero) continue;
      ASSERT_EQ(w.log, s.logval.wide()) << "F " << frac << " v " << v;
      ASSERT_EQ(w.sign != 0, s.sign < 0) << "F " << frac << " v " << v;
      ASSERT_EQ(fmt.pow_neg_3_2_log(w.log),
                fmt.pow_neg_3_2(s).logval.wide());
      ASSERT_EQ(fmt.pow_neg_1_2_log(w.log),
                fmt.pow_neg_1_2(s).logval.wide());
    }

    // Decode: every word around the split's edges and a sweep between.
    const std::int64_t one = std::int64_t{1} << frac;
    std::vector<std::int64_t> logs;
    for (const std::int64_t c : {-1022 * one, -1021 * one, 0 * one,
                                 1022 * one, 1023 * one}) {
      for (std::int64_t l = c - 3; l <= c + 3; ++l) logs.push_back(l);
    }
    for (std::int64_t l = -1100 * one; l <= 1100 * one; l += one / 4 + 7) {
      logs.push_back(l);
    }
    for (const std::int64_t l : logs) {
      for (const bool negative : {false, true}) {
        LnsValue v;
        v.zero = false;
        v.sign = negative ? std::int8_t{-1} : std::int8_t{1};
        v.logval = g5::math::LnsCode::from_bits(static_cast<std::int32_t>(l));
        std::uint64_t bad = 0;
        const double got = fmt.decode_lane(LnsFormat::lane(v), bad);
        const std::int64_t q = l >= 0 ? l / one : -((-l + one - 1) / one);
        const bool outside = q < -1021 || q > 1022;
        ASSERT_EQ(static_cast<std::int64_t>(bad) < 0, outside)
            << "F " << frac << " logval " << l;
        if (!outside) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                    std::bit_cast<std::uint64_t>(fmt.to_double(v)))
              << "F " << frac << " logval " << l;
        }
        // The zero tag decodes to +0.0 and never flags.
        LnsLane dead = LnsFormat::lane(v);
        dead.live = 0;
        std::uint64_t dead_bad = 0;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(fmt.decode_lane(dead, dead_bad)),
                  std::uint64_t{0});
        ASSERT_EQ(dead_bad, 0u);
      }
    }
  }
}

}  // namespace
