// Logarithmic number system (LNS) arithmetic for the G5 pipeline emulation.
//
// GRAPE chips since GRAPE-3 perform the multiplicative core of the force
// pipeline (squares, the r^(-3/2) evaluation, the m * r^(-3/2) * dx
// products) in a short logarithmic format: a value is (sign, log2|v|) with
// the logarithm held as a fixed-point word with F fractional bits.
// Multiplication and powers are then integer adds/shifts of the log word;
// the only rounding happens when converting in and out of the format. The
// fraction width F is the single knob that sets the pairwise force accuracy
// (GRAPE-5's ~0.3 % rms corresponds to F = 7..8; see grape/pipeline.cpp).
//
// Range-edge semantics mirror the hardware: the exponent saturates at the
// top of the representable range, and magnitudes below the bottom code
// underflow to the tagged zero (flush-to-zero), as an LNS datapath's
// underflow detection does.
//
// LnsFormat carries F plus the exponent clamp; LnsValue is a POD word
// whose log field is the strong math::LnsCode (domain.hpp) — raw code
// bits cannot mix with fixed-point words or host doubles without going
// through this class, which is the only double<->code conversion point.
//
// Both conversions are table lookups, as on the hardware (GRAPE-5 converts
// into and out of its log format with tables):
//   * encode is *defined* as the exactly rounded log word round(log2|v| *
//     2^F). It reads the IEEE bits: the exponent field gives the integer
//     part, and one packed table indexed by the top F+1 mantissa bits
//     gives the fraction code at the bucket start plus the one rounding
//     threshold the bucket may hold (thresholds 2^((k-1/2)/2^F) are more
//     than a bucket width apart). lns.cpp derives every threshold with an
//     exact interval check; tests/math_lns_test.cpp pins the encoder
//     against an independent reference at every threshold;
//   * decode splits logval = q * 2^F + r, looks up exp2(r / 2^F) and
//     scales by 2^q built in the exponent field — bitwise std::exp2 on the
//     full logval domain (tests/math_lns_test.cpp pins it).
// The arithmetic is defined inline here so the pipeline kernel keeps the
// whole datapath in registers; the integer ops themselves are the
// constexpr log-domain ALU of domain.hpp (lns.cpp static_asserts their
// invariants).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "math/domain.hpp"

namespace g5::math {

/// One LNS word: sign in {-1,+1}, `logval` = round(log2|v| * 2^F) as a
/// saturating strong code word, and an explicit zero flag (hardware uses
/// a zero tag bit; log of zero is not representable).
struct LnsValue {
  LnsCode logval{};
  std::int8_t sign = 1;
  bool zero = true;

  [[nodiscard]] static LnsValue make_zero() noexcept { return LnsValue{}; }
};

class LnsFormat {
 public:
  /// `frac_bits` F in [1, 16]: fractional bits of the log word (accuracy
  /// knob).
  /// `exp_bits`: width of the integer part of the log word; log2|v| is
  /// clamped to [-2^(exp_bits-1), 2^(exp_bits-1)) before scaling. The
  /// defaults cover the dynamic range the pipeline needs with margin.
  explicit LnsFormat(int frac_bits, int exp_bits = 12);

  [[nodiscard]] int frac_bits() const noexcept { return frac_bits_; }
  [[nodiscard]] int exp_bits() const noexcept { return exp_bits_; }

  /// Relative spacing of representable magnitudes: 2^(2^-F) - 1 ~ ln2 * 2^-F.
  [[nodiscard]] double relative_step() const noexcept { return rel_step_; }

  /// Encode a double: the exactly rounded log word (round-to-nearest in
  /// log space; the boundaries are irrational, so there are no ties). The
  /// exponent saturates at the top of the range and *flushes to zero*
  /// below the bottom code (LNS hardware underflow). With to_double, the
  /// only double<->code conversion in the codebase.
  [[nodiscard]] LnsValue from_double(double v) const noexcept {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    const bool negative = (bits & kSignBit) != 0;
    bits &= ~kSignBit;
    // Zero, and the non-finite inputs the hardware cannot represent.
    if (bits == 0 || bits >= kExponentMask) return LnsValue::make_zero();
    std::int64_t exponent = -1023;
    if (bits < kMinNormalBits) {
      // Subnormal: scaling by 2^64 normalises it exactly.
      const double normalised = std::bit_cast<double>(bits) * 0x1p64;
      bits = std::bit_cast<std::uint64_t>(normalised);
      exponent -= 64;
    }
    exponent += static_cast<std::int64_t>(bits >> kMantissaBits);
    const std::uint64_t mantissa = bits & kMantissaMask;
    // base + (low >= threshold): the low mantissa bits carry into the
    // bucket's code exactly when they reach its threshold.
    const std::uint64_t word = encode_table_[mantissa >> low_bits_];
    const std::uint64_t low = mantissa & low_mask_;
    const auto fraction = static_cast<std::int64_t>((word + low) >> low_bits_);
    const std::int64_t scaled =
        exponent * (std::int64_t{1} << frac_bits_) + fraction;
    // Strictly below the bottom code the underflow unit tags the word
    // zero; at the bottom code the value is representable and kept.
    if (scaled < min_log_) return LnsValue::make_zero();
    LnsValue out;
    out.zero = false;
    out.sign = negative ? std::int8_t{-1} : std::int8_t{1};
    out.logval = LnsCode::from_bits(
        scaled >= max_log_ ? max_log_ : static_cast<std::int32_t>(scaled));
    return out;
  }

  /// Decode back to double.
  [[nodiscard]] double to_double(const LnsValue& v) const noexcept {
    if (v.zero) return 0.0;
    // Split logval = q * 2^F + r, r in [0, 2^F): scaling by 2^q is exact,
    // so exp2(r / 2^F) * 2^q == exp2(logval / 2^F) bitwise whenever the
    // result is a normal double. Subnormal results round differently
    // under the split (and huge q overflows), so fall back outside the q
    // range that can produce a normal.
    const int q = lns_exp2_split_q(v.logval.bits(), frac_bits_);
    if (q >= -1021 && q <= 1022) {
      const auto r = static_cast<std::size_t>(
          lns_exp2_split_r(v.logval.bits(), frac_bits_));
      // +-2^q, built in the sign and exponent fields.
      const std::uint64_t sign = v.sign < 0 ? kSignBit : 0;
      const std::uint64_t exponent =
          static_cast<std::uint64_t>(q + 1023) << kMantissaBits;
      return exp2_table_[r] * std::bit_cast<double>(sign | exponent);
    }
    const double l =
        std::ldexp(static_cast<double>(v.logval.bits()), -frac_bits_);
    return static_cast<double>(v.sign) * std::exp2(l);
  }

  /// Round-trip through the format (the value the datapath sees).
  [[nodiscard]] double quantize(double v) const noexcept {
    return to_double(from_double(v));
  }

  /// Exact in-format product: log words add (saturating), signs multiply.
  [[nodiscard]] LnsValue mul(const LnsValue& a,
                             const LnsValue& b) const noexcept {
    if (a.zero || b.zero) return LnsValue::make_zero();
    LnsValue out;
    out.zero = false;
    out.sign = static_cast<std::int8_t>(a.sign * b.sign);
    out.logval = LnsCode::from_bits(
        lns_saturate(a.logval.wide() + b.logval.wide(), min_log_, max_log_));
    return out;
  }

  /// Exact in-format square: doubles the log word; result sign is +.
  [[nodiscard]] LnsValue square(const LnsValue& a) const noexcept {
    if (a.zero) return LnsValue::make_zero();
    LnsValue out;
    out.zero = false;
    out.sign = 1;
    out.logval = LnsCode::from_bits(
        lns_saturate(2 * a.logval.wide(), min_log_, max_log_));
    return out;
  }

  /// x^(-3/2) for x > 0: logval -> -(3 * logval) / 2 with round-to-nearest.
  /// This models the unit the hardware implements with a lookup table; an
  /// optional coarse table index (see `set_table_index_bits`) reproduces
  /// table-resolution effects when the table is narrower than F.
  [[nodiscard]] LnsValue pow_neg_3_2(const LnsValue& a) const noexcept {
    if (a.zero) {
      // r^-3/2 of zero would be infinite; saturate at the top of the range.
      return saturated_top();
    }
    // logval(out) = -(3/2) * logval(in), round half away from zero.
    const std::int64_t num =
        -3 * lns_table_grid(a.logval.wide(), frac_bits_, table_bits_);
    return half_of(num);
  }

  /// x^(-1/2) for x > 0 (the potential unit): logval -> -logval / 2. The
  /// same physical lookup table feeds both power units, so the potential
  /// path sees the identical table-index granularity as the force path.
  [[nodiscard]] LnsValue pow_neg_1_2(const LnsValue& a) const noexcept {
    if (a.zero) {
      return saturated_top();
    }
    const std::int64_t num =
        -lns_table_grid(a.logval.wide(), frac_bits_, table_bits_);
    return half_of(num);
  }

  /// Restrict the power units' mantissa resolution to `bits` fractional
  /// bits (bits <= F). 0 restores full-F behaviour. Models a narrower
  /// hardware lookup table (ablation knob for bench_e3_accuracy).
  void set_table_index_bits(int bits);
  [[nodiscard]] int table_index_bits() const noexcept { return table_bits_; }

 private:
  // IEEE binary64 fields.
  static constexpr int kMantissaBits = 52;
  static constexpr std::uint64_t kSignBit = 0x8000'0000'0000'0000;
  static constexpr std::uint64_t kExponentMask = 0x7ff0'0000'0000'0000;
  static constexpr std::uint64_t kMinNormalBits = 0x0010'0000'0000'0000;
  static constexpr std::uint64_t kMantissaMask = kMinNormalBits - 1;

  int frac_bits_;
  int exp_bits_;
  int table_bits_ = 0;  // 0 = full resolution
  std::int32_t max_log_ = 0;
  std::int32_t min_log_ = 0;
  double rel_step_ = 0.0;
  /// Encode split of the mantissa: the top F+1 bits index the bucket;
  /// the `low_bits_` = 52-(F+1) below them are compared with its
  /// threshold.
  int low_bits_ = 0;
  std::uint64_t low_mask_ = 0;
  /// Packed bucket words: (fraction code at the bucket start) << low_bits_
  /// plus 2^low_bits_ - (the bucket's threshold on the low bits, or
  /// 2^low_bits_ when it holds none).
  std::vector<std::uint64_t> encode_table_;
  /// exp2_table_[r] = exp2(r / 2^F) for r in [0, 2^F).
  std::vector<double> exp2_table_;

  /// The positive word saturated at the top of the range (power units'
  /// response to a zero input).
  [[nodiscard]] LnsValue saturated_top() const noexcept {
    LnsValue out;
    out.zero = false;
    out.sign = 1;
    out.logval = LnsCode::from_bits(max_log_);
    return out;
  }

  /// num / 2 rounded half away from zero, saturated into a log word.
  [[nodiscard]] LnsValue half_of(std::int64_t num) const noexcept {
    LnsValue out;
    out.zero = false;
    out.sign = 1;
    out.logval = LnsCode::from_bits(
        lns_saturate(lns_half_away(num), min_log_, max_log_));
    return out;
  }
};

}  // namespace g5::math
