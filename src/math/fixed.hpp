// Fixed-point codecs used by the GRAPE-5 pipeline emulation.
//
// The real G5 chip receives particle positions as fixed-point words scaled
// to a coordinate range set by the host (`g5_set_range`), computes the
// coordinate differences exactly in fixed point, and accumulates forces in
// wide fixed-point registers. These helpers reproduce that arithmetic with
// explicit, testable quantization semantics.
//
// The codec speaks the strong domain types of math/domain.hpp: encode
// produces a math::Fixed20 position word, subtraction of two words yields
// a math::FixedDelta, and decode/delta_to_double are the only paths back
// to host doubles. Raw integer codes exist only inside this class.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "math/domain.hpp"

namespace g5::math {

/// Maps doubles in [lo, hi) onto a signed integer grid of `bits` bits
/// (two's complement, so the representable codes are [-2^(bits-1),
/// 2^(bits-1)-1]). Values outside the range saturate, as the hardware does.
class FixedPointCodec {
 public:
  FixedPointCodec(double lo, double hi, int bits) : bits_(bits) {
    if (!(hi > lo)) throw std::invalid_argument("fixed-point range empty");
    if (bits < 2 || bits > 62) throw std::invalid_argument("bits out of range");
    center_ = 0.5 * (lo + hi);
    // One code step. The full span maps to 2^bits codes.
    quantum_ = (hi - lo) / std::ldexp(1.0, bits);
    max_code_ = (std::int64_t{1} << (bits - 1)) - 1;
    min_code_ = -(std::int64_t{1} << (bits - 1));
  }

  /// Quantize: round-to-nearest onto the grid, saturating at the rails.
  [[nodiscard]] Fixed20 encode(double x) const noexcept {
    const double scaled = (x - center_) / quantum_;
    const double rounded = std::nearbyint(scaled);
    if (rounded >= static_cast<double>(max_code_)) {
      return Fixed20::from_code(max_code_);
    }
    if (rounded <= static_cast<double>(min_code_)) {
      return Fixed20::from_code(min_code_);
    }
    return Fixed20::from_code(static_cast<std::int64_t>(rounded));
  }

  [[nodiscard]] double decode(Fixed20 word) const noexcept {
    return center_ + static_cast<double>(word.code()) * quantum_;
  }

  /// Decode an exact fixed-point coordinate difference: the delta scales
  /// by the quantum only (the window centers cancel in the subtraction).
  [[nodiscard]] double delta_to_double(FixedDelta d) const noexcept {
    return static_cast<double>(d.code()) * quantum_;
  }

  /// Round-trip a double through the grid (the value the pipeline sees).
  [[nodiscard]] double quantize(double x) const noexcept {
    return decode(encode(x));
  }

  [[nodiscard]] double quantum() const noexcept { return quantum_; }
  [[nodiscard]] int bits() const noexcept { return bits_; }
  [[nodiscard]] double lo() const noexcept {
    return decode(Fixed20::from_code(min_code_));
  }
  [[nodiscard]] double hi() const noexcept {
    return decode(Fixed20::from_code(max_code_));
  }

 private:
  int bits_;
  double center_ = 0.0;
  double quantum_ = 1.0;
  std::int64_t max_code_ = 0;
  std::int64_t min_code_ = 0;
};

/// The accumulator registers' rail: counts saturate at +-kAccumulatorRail
/// (< 2^63). The one rail of the device — FixedAccumulator, the board
/// merge and the chip-fault gain all clamp here.
inline constexpr std::int64_t kAccumulatorRail = 9'000'000'000'000'000'000;

/// Round a count held in a double onto the integer grid, clamped to the
/// rail; sets `saturated` when it clamps (a NaN clamps to +rail). In the
/// default rounding mode std::rint equals std::nearbyint, and the compiler
/// inlines it where nearbyint is a library call on this per-interaction path.
[[nodiscard]] inline std::int64_t rail_count(double count,
                                             bool& saturated) noexcept {
  const double rounded = std::rint(count);
  if (std::fabs(rounded) <= static_cast<double>(kAccumulatorRail)) {
    return static_cast<std::int64_t>(rounded);
  }
  saturated = true;
  return rounded < 0.0 ? -kAccumulatorRail : kAccumulatorRail;
}

/// Exact int64 add clamped to the rail; sets `saturated` when it clamps.
/// Exact across the whole range, so partial sums merge with integer
/// associativity however the stream was split.
[[nodiscard]] inline std::int64_t rail_add(std::int64_t a, std::int64_t b,
                                           bool& saturated) noexcept {
  std::int64_t sum = 0;
  const bool wrapped = __builtin_add_overflow(a, b, &sum);
  if (!wrapped && sum >= -kAccumulatorRail && sum <= kAccumulatorRail) {
    return sum;
  }
  saturated = true;
  return (wrapped ? b > 0 : sum > 0) ? kAccumulatorRail : -kAccumulatorRail;
}

/// Wide fixed-point accumulator: the force sum is accumulated as an integer
/// multiple of a fixed quantum, exactly as in the hardware's accumulator
/// registers. Each term is rounded to a count and added in int64, exactly
/// across the whole range; overflow saturates at the rail (and is
/// observable for diagnostics).
class FixedAccumulator {
 public:
  explicit FixedAccumulator(double quantum) : quantum_(quantum) {
    if (!(quantum > 0.0)) throw std::invalid_argument("quantum must be > 0");
  }

  void add(double x) noexcept { add_rounded(x / quantum_); }

  /// Add a count of the quantum held in a double: rounded onto the
  /// integer grid (rail_count), then added exactly (rail_add).
  void add_rounded(double count) noexcept {
    acc_ = rail_add(acc_, rail_count(count, saturated_), saturated_);
  }

  [[nodiscard]] double value() const noexcept {
    return static_cast<double>(acc_) * quantum_;
  }
  /// The raw accumulator register: an integer count of the quantum.
  /// Partial sums from different pipelines are exact in this domain
  /// (integer addition is associative), which is what lets a multi-board
  /// reduction stay bitwise-identical to a single accumulator stream —
  /// see grape/system.hpp.
  [[nodiscard]] std::int64_t raw() const noexcept { return acc_; }
  [[nodiscard]] bool saturated() const noexcept { return saturated_; }
  [[nodiscard]] double quantum() const noexcept { return quantum_; }

  void reset() noexcept {
    acc_ = 0;
    saturated_ = false;
  }

 private:
  double quantum_;
  std::int64_t acc_ = 0;
  bool saturated_ = false;
};

}  // namespace g5::math
