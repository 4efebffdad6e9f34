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
// Both also come in a branch-free lane form (encode_lane / decode_lane,
// over the LnsLane word) for loops the compiler vectorizes: the bit-exact
// pipeline kernel runs every pair through them. The scalar and lane forms
// share the table arithmetic (log_of_normal, exp2_split); the scalar ones
// branch where the lane forms flag (subnormals, non-finite inputs,
// decodes outside the table split), and tests/math_lns_test.cpp pins the
// two together.
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

/// A log word in the lane form of the conversions: the log (unsaturated
/// when it is a lane sum), the IEEE sign bit (0 or 2^63) and the zero tag
/// as a mask (all ones for a nonzero word, 0 for the tagged zero). Selects
/// on it are integer ANDs, which a vectorized loop keeps branch-free.
struct LnsLane {
  std::int64_t log = 0;
  std::uint64_t sign = 0;
  std::uint64_t live = 0;
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
    std::int64_t scaled = 0;
    if (bits < kMinNormalBits) {
      // Subnormal: scaling by 2^64 normalises it exactly.
      const double normalised = std::bit_cast<double>(bits) * 0x1p64;
      scaled = log_of_normal(std::bit_cast<std::uint64_t>(normalised)) -
               (std::int64_t{64} << frac_bits_);
    } else {
      scaled = log_of_normal(bits);
    }
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
    const std::int64_t q = lns_exp2_split_q(v.logval.wide(), frac_bits_);
    if (q >= -1021 && q <= 1022) {
      return exp2_split(v.logval.wide(), v.sign < 0 ? kSignBit : 0);
    }
    const double l =
        std::ldexp(static_cast<double>(v.logval.bits()), -frac_bits_);
    return static_cast<double>(v.sign) * std::exp2(l);
  }

  /// Lane form of from_double, branch-free: the word of v as an LnsLane
  /// (a zero v gives the zero tag). Equals from_double for zero and every
  /// normal v; for a subnormal or non-finite v it sets the sign bit of
  /// `bad` and the word is meaningless. Exact without saturation because
  /// the format holds the log of every normal double — which needs
  /// exp_bits() >= 12, the default.
  [[nodiscard]] LnsLane encode_lane(double v,
                                    std::uint64_t& bad) const noexcept {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    const std::uint64_t magnitude = bits & ~kSignBit;
    LnsLane out;
    out.log = log_of_normal(magnitude);
    out.sign = bits & kSignBit;
    out.live = lns_nonzero_mask(magnitude);
    // Both differences are below 2^63 exactly for a normal, finite v.
    bad |= ((magnitude - kMinNormalBits) | (kExponentMask - 1 - magnitude)) &
           out.live;
    return out;
  }

  /// Lane form of to_double, branch-free: +-exp2(w.log / 2^F) for a live
  /// word, 0.0 for the zero tag. It splits log = q * 2^F + r, r in
  /// [0, 2^F); scaling by 2^q is exact, so exp2(r / 2^F) * 2^q equals
  /// exp2(log / 2^F) bitwise whenever the result is a normal double,
  /// which it is for q in [-1021, 1022]. For any other live word (a
  /// subnormal result rounds differently under the split, and a huge q
  /// overflows) it sets the sign bit of `bad` — to_double's std::exp2
  /// branch — and the result is meaningless.
  [[nodiscard]] double decode_lane(const LnsLane& w,
                                   std::uint64_t& bad) const noexcept {
    const std::int64_t q = lns_exp2_split_q(w.log, frac_bits_);
    bad |= static_cast<std::uint64_t>((q + 1021) | (1022 - q)) & w.live;
    const double d = exp2_split(w.log, w.sign);
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(d) & w.live);
  }

  /// Lane form of mul (and of square, as mul_lane(a, a)), unsaturated:
  /// the logs add, the signs multiply, the zero tags combine.
  [[nodiscard]] static LnsLane mul_lane(const LnsLane& a,
                                        const LnsLane& b) noexcept {
    return {a.log + b.log, a.sign ^ b.sign, a.live & b.live};
  }

  /// A word in lane form: its log, sign bit and zero tag.
  [[nodiscard]] static LnsLane lane(const LnsValue& v) noexcept {
    LnsLane out;
    out.log = v.logval.wide();
    out.sign = v.sign < 0 ? kSignBit : 0;
    out.live = v.zero ? 0 : ~std::uint64_t{0};
    return out;
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
      return saturated(max_log_);
    }
    return saturated(pow_neg_3_2_log(a.logval.wide()));
  }

  /// x^(-1/2) for x > 0 (the potential unit): logval -> -logval / 2. The
  /// same physical lookup table feeds both power units, so the potential
  /// path sees the identical table-index granularity as the force path.
  [[nodiscard]] LnsValue pow_neg_1_2(const LnsValue& a) const noexcept {
    if (a.zero) {
      return saturated(max_log_);
    }
    return saturated(pow_neg_1_2_log(a.logval.wide()));
  }

  /// The power units' log words for a nonzero input of log `l`, before
  /// pow_neg_3_2 / pow_neg_1_2 saturate them: -(3/2) * l and -l / 2 on the
  /// table grid, rounded half away from zero. Branch-free (lane form).
  [[nodiscard]] std::int64_t pow_neg_3_2_log(std::int64_t l) const noexcept {
    return lns_half_away(-3 * lns_round_to_grid(l, table_drop_));
  }
  [[nodiscard]] std::int64_t pow_neg_1_2_log(std::int64_t l) const noexcept {
    return lns_half_away(-lns_round_to_grid(l, table_drop_));
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
  int table_drop_ = 0;  // lns_table_drop(frac_bits_, table_bits_)
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
  /// exp2_table_[r] = the bits of exp2(r / 2^F) for r in [0, 2^F). Held
  /// as integers, so that a loop storing doubles cannot alias its reads
  /// (type-based alias analysis then lets the table reads vectorize as
  /// gathers).
  std::vector<std::uint64_t> exp2_table_;

  /// exp2(log / 2^F) with the IEEE sign bit `sign`, by the table: the
  /// fraction r of the split log = q * 2^F + r looked up, times +-2^q
  /// built in the sign and exponent fields. Exact for q in
  /// [-1021, 1022]; any other q gives some double.
  [[nodiscard]] double exp2_split(std::int64_t log,
                                  std::uint64_t sign) const noexcept {
    const std::int64_t q = lns_exp2_split_q(log, frac_bits_);
    const std::uint64_t scale =
        sign | (static_cast<std::uint64_t>(q + 1023) << kMantissaBits);
    const auto r = static_cast<std::size_t>(lns_exp2_split_r(log, frac_bits_));
    return std::bit_cast<double>(exp2_table_[r]) *
           std::bit_cast<double>(scale);
  }

  /// The positive word of log `l`, saturated into the format.
  [[nodiscard]] LnsValue saturated(std::int64_t l) const noexcept {
    LnsValue out;
    out.zero = false;
    out.sign = 1;
    out.logval = LnsCode::from_bits(lns_saturate(l, min_log_, max_log_));
    return out;
  }

  /// round(log2(m) * 2^F) for the magnitude bits of a normal double m, by
  /// the packed table: base + (low >= threshold), the low mantissa bits
  /// carrying into the bucket's code exactly when they reach its
  /// threshold. Any other bits give some log (the table index stays in
  /// range).
  [[nodiscard]] std::int64_t log_of_normal(
      std::uint64_t magnitude) const noexcept {
    const std::uint64_t mantissa = magnitude & kMantissaMask;
    const std::uint64_t word = encode_table_[mantissa >> low_bits_];
    const std::uint64_t fraction =
        (word + (mantissa & low_mask_)) >> low_bits_;
    const std::uint64_t exponent = (magnitude >> kMantissaBits) << frac_bits_;
    return static_cast<std::int64_t>(exponent + fraction) -
           (std::int64_t{1023} << frac_bits_);
  }
};

}  // namespace g5::math
