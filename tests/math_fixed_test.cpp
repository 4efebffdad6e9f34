#include <gtest/gtest.h>

#include <cmath>

#include "math/fixed.hpp"
#include "math/rng.hpp"

namespace {

using g5::math::FixedAccumulator;
using g5::math::FixedPointCodec;

TEST(FixedPointCodec, QuantumMatchesSpan) {
  const FixedPointCodec codec(-1.0, 1.0, 16);
  EXPECT_DOUBLE_EQ(codec.quantum(), 2.0 / 65536.0);
  EXPECT_EQ(codec.bits(), 16);
}

TEST(FixedPointCodec, RoundTripWithinHalfQuantum) {
  const FixedPointCodec codec(-10.0, 10.0, 24);
  g5::math::Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-10.0, 10.0);
    const double q = codec.quantize(x);
    EXPECT_LE(std::fabs(q - x), 0.5 * codec.quantum() * (1.0 + 1e-12));
  }
}

TEST(FixedPointCodec, EncodeIsMonotone) {
  const FixedPointCodec codec(-4.0, 4.0, 12);
  double prev = codec.quantize(-4.0);
  for (double x = -4.0; x <= 4.0; x += 0.001) {
    const double q = codec.quantize(x);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(FixedPointCodec, SaturatesOutsideRange) {
  const FixedPointCodec codec(-1.0, 1.0, 8);
  EXPECT_DOUBLE_EQ(codec.quantize(50.0), codec.hi());
  EXPECT_DOUBLE_EQ(codec.quantize(-50.0), codec.lo());
  EXPECT_LE(codec.hi(), 1.0);
  EXPECT_GE(codec.lo(), -1.0 - codec.quantum());
}

TEST(FixedPointCodec, ExactDifferencesOfCodes) {
  // The pipeline relies on x_j - x_i being exact in code space.
  const FixedPointCodec codec(-2.0, 2.0, 20);
  const auto a = codec.encode(0.125);
  const auto b = codec.encode(-0.375);
  const double diff = codec.delta_to_double(a - b);
  EXPECT_NEAR(diff, 0.5, codec.quantum());
}

TEST(FixedPointCodec, RejectsBadArguments) {
  EXPECT_THROW(FixedPointCodec(1.0, 1.0, 16), std::invalid_argument);
  EXPECT_THROW(FixedPointCodec(2.0, 1.0, 16), std::invalid_argument);
  EXPECT_THROW(FixedPointCodec(0.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(FixedPointCodec(0.0, 1.0, 63), std::invalid_argument);
}

class FixedCodecBits : public ::testing::TestWithParam<int> {};

TEST_P(FixedCodecBits, ErrorScalesWithBits) {
  const int bits = GetParam();
  const FixedPointCodec codec(-1.0, 1.0, bits);
  const double expected_quantum = 2.0 / std::ldexp(1.0, bits);
  EXPECT_DOUBLE_EQ(codec.quantum(), expected_quantum);
  g5::math::Rng rng(71);
  double worst = 0.0;
  // Stay a quantum clear of the rails: the +max code is 2^(b-1)-1 (two's
  // complement), so values within half a quantum of +1 saturate.
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(codec.lo() + expected_quantum,
                                 codec.hi() - expected_quantum);
    worst = std::max(worst, std::fabs(codec.quantize(x) - x));
  }
  EXPECT_LE(worst, 0.5 * expected_quantum * (1.0 + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Widths, FixedCodecBits,
                         ::testing::Values(8, 12, 16, 20, 24, 32, 40));

TEST(FixedAccumulator, ExactMultiplesAccumulate) {
  FixedAccumulator acc(0.25);
  acc.add(1.0);
  acc.add(0.5);
  acc.add(-0.25);
  EXPECT_DOUBLE_EQ(acc.value(), 1.25);
  EXPECT_FALSE(acc.saturated());
}

TEST(FixedAccumulator, RoundsToQuantum) {
  FixedAccumulator acc(1.0);
  acc.add(0.4);  // rounds to 0
  EXPECT_DOUBLE_EQ(acc.value(), 0.0);
  acc.add(0.6);  // rounds to 1
  EXPECT_DOUBLE_EQ(acc.value(), 1.0);
}

TEST(FixedAccumulator, SaturatesAndFlags) {
  FixedAccumulator acc(1.0);
  acc.add(8.0e18);
  acc.add(8.0e18);
  EXPECT_TRUE(acc.saturated());
  EXPECT_GT(acc.value(), 8.0e18);
  acc.reset();
  EXPECT_FALSE(acc.saturated());
  EXPECT_DOUBLE_EQ(acc.value(), 0.0);
}

TEST(FixedAccumulator, NegativeSaturation) {
  FixedAccumulator acc(1.0);
  acc.add(-8.0e18);
  acc.add(-8.0e18);
  EXPECT_TRUE(acc.saturated());
  EXPECT_LT(acc.value(), -8.0e18);
}

TEST(FixedAccumulator, ExactAbove2To53) {
  // The registers are integers across their whole range: one count added
  // at 2^53 is kept (a double sum would round it away), and so is every
  // count on the way back down.
  constexpr std::int64_t kBig = std::int64_t{1} << 53;
  FixedAccumulator acc(1.0);
  acc.add(static_cast<double>(kBig));
  acc.add(1.0);
  EXPECT_EQ(acc.raw(), kBig + 1);
  acc.add(1.0);
  acc.add(1.0);
  EXPECT_EQ(acc.raw(), kBig + 3);
  acc.add(-static_cast<double>(kBig));
  EXPECT_EQ(acc.raw(), 3);
  EXPECT_FALSE(acc.saturated());
}

TEST(FixedAccumulator, RejectsBadQuantum) {
  EXPECT_THROW(FixedAccumulator(0.0), std::invalid_argument);
  EXPECT_THROW(FixedAccumulator(-1.0), std::invalid_argument);
}

TEST(FixedAccumulator, ManySmallAddsStayExact) {
  // 10^6 adds of one quantum each: integer arithmetic, no drift.
  FixedAccumulator acc(1e-9);
  for (int i = 0; i < 1000000; ++i) acc.add(1e-9);
  EXPECT_DOUBLE_EQ(acc.value(), 1e-9 * 1000000);
}

}  // namespace
