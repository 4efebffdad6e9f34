// Strong numeric-domain types for the GRAPE wire formats.
//
// The paper's 0.3 % force-error budget holds only while every value that
// crosses the host<->board boundary passes through the fixed-point / LNS
// codecs. These wrappers make that invariant structural: a raw LNS log
// word (LnsCode), a fixed-point position word (Fixed20) and an exact
// fixed-point coordinate difference (FixedDelta) are distinct,
// explicit-construction types exposing only the operations the hardware
// datapath actually has. Mixing domains — adding a log code to a
// position word, assigning a host double into a JWord field, reading a
// fixed word back as a double without the codec — does not compile
// (tests/compile_fail/ pins each case).
//
// All wrappers are zero-cost: layout-identical to their carrier integer
// (static_asserts below), trivially copyable, and every operation is a
// constexpr integer op, so the batched pipeline kernels keep the whole
// datapath in registers exactly as before the types existed.
//
// The constexpr "log-domain ALU" helpers at the bottom are the integer
// arithmetic of the LNS datapath (saturation, the shared power-unit
// table grid, the /2 rounding of the power units). math::LnsFormat is
// their only runtime caller; src/math/lns.cpp static_asserts the
// table-grid invariants on them at compile time.
#pragma once

#include <cstdint>
#include <type_traits>

namespace g5::math {

/// Raw bits of one LNS log word: round(log2|v| * 2^F) as a saturating
/// integer. Carries no arithmetic of its own — multiplication, squares
/// and the power units live on math::LnsFormat, which is also the only
/// double<->code conversion point. `from_bits`/`bits` exist for the
/// codec layer and tests; they are deliberately loud in application
/// code, where they show up in review as a codec bypass.
class LnsCode {
 public:
  constexpr LnsCode() noexcept = default;

  [[nodiscard]] static constexpr LnsCode from_bits(std::int32_t bits) noexcept {
    return LnsCode(bits);
  }
  [[nodiscard]] constexpr std::int32_t bits() const noexcept { return bits_; }
  /// Widened read for the log-domain ALU (adds of two codes need 33 bits).
  [[nodiscard]] constexpr std::int64_t wide() const noexcept { return bits_; }

  friend constexpr bool operator==(LnsCode, LnsCode) noexcept = default;

 private:
  explicit constexpr LnsCode(std::int32_t bits) noexcept : bits_(bits) {}
  std::int32_t bits_ = 0;
};

/// Exact fixed-point coordinate difference x_j - x_i: the one value class
/// the hardware subtractor produces. Decoding to a double goes through
/// FixedPointCodec::delta_to_double (the delta scales by the quantum
/// only — no window center offset).
class FixedDelta {
 public:
  constexpr FixedDelta() noexcept = default;

  [[nodiscard]] static constexpr FixedDelta from_code(
      std::int64_t code) noexcept {
    return FixedDelta(code);
  }
  [[nodiscard]] constexpr std::int64_t code() const noexcept { return code_; }
  [[nodiscard]] constexpr bool is_zero() const noexcept { return code_ == 0; }

  friend constexpr bool operator==(FixedDelta, FixedDelta) noexcept = default;

 private:
  explicit constexpr FixedDelta(std::int64_t code) noexcept : code_(code) {}
  std::int64_t code_ = 0;
};

/// One fixed-point position word on the codec's coordinate window (the
/// hardware's 20-bit x/y/z words; the emulator carries them in 64 bits so
/// the width stays a runtime knob — FixedPointCodec::bits()). The only
/// producers are FixedPointCodec::encode and `from_code` (codec layer /
/// tests); the only arithmetic is the exact subtraction the chip's
/// address unit performs.
class Fixed20 {
 public:
  constexpr Fixed20() noexcept = default;

  [[nodiscard]] static constexpr Fixed20 from_code(std::int64_t code) noexcept {
    return Fixed20(code);
  }
  [[nodiscard]] constexpr std::int64_t code() const noexcept { return code_; }

  /// Exact fixed-point subtraction (the pipeline's x_j - x_i).
  friend constexpr FixedDelta operator-(Fixed20 a, Fixed20 b) noexcept {
    return FixedDelta::from_code(a.code_ - b.code_);
  }
  friend constexpr bool operator==(Fixed20, Fixed20) noexcept = default;

 private:
  explicit constexpr Fixed20(std::int64_t code) noexcept : code_(code) {}
  std::int64_t code_ = 0;
};

/// The pipeline's i == j cut: all three coordinate differences are zero
/// (one OR-reduction, as the hardware's coincidence detector does it).
[[nodiscard]] constexpr bool coincident(FixedDelta dx, FixedDelta dy,
                                        FixedDelta dz) noexcept {
  return (dx.code() | dy.code() | dz.code()) == 0;
}

// Zero-cost: layout-identical to the carrier integers, trivial to copy,
// so particle-memory words of them are the same bytes as before the types.
static_assert(sizeof(LnsCode) == sizeof(std::int32_t));
static_assert(alignof(LnsCode) == alignof(std::int32_t));
static_assert(std::is_trivially_copyable_v<LnsCode>);
static_assert(sizeof(Fixed20) == sizeof(std::int64_t));
static_assert(alignof(Fixed20) == alignof(std::int64_t));
static_assert(std::is_trivially_copyable_v<Fixed20>);
static_assert(sizeof(FixedDelta) == sizeof(std::int64_t));
static_assert(std::is_trivially_copyable_v<FixedDelta>);

// --------------------------------------------------------------------
// The constexpr log-domain ALU: integer arithmetic of the LNS datapath.
// LnsFormat is the runtime caller; lns.cpp static_asserts the PR-6
// table-grid invariants on these at compile time.
// --------------------------------------------------------------------

/// Largest / smallest representable log word for a format (exp_bits wide
/// integer part, frac_bits fractional bits).
[[nodiscard]] constexpr std::int32_t lns_max_log(int frac_bits,
                                                 int exp_bits) noexcept {
  // Widened shift: the widest format (frac 16, exp 16) tops out at
  // exactly 2^31 - 1, the int32 carrier's maximum (lns.cpp asserts it).
  const std::int64_t exp_half = std::int64_t{1} << (exp_bits - 1);
  return static_cast<std::int32_t>((exp_half << frac_bits) - 1);
}
[[nodiscard]] constexpr std::int32_t lns_min_log(int frac_bits,
                                                 int exp_bits) noexcept {
  const std::int64_t exp_half = std::int64_t{1} << (exp_bits - 1);
  return static_cast<std::int32_t>(-(exp_half << frac_bits));
}

/// Saturate a widened log sum back into the format's word range.
[[nodiscard]] constexpr std::int32_t lns_saturate(
    std::int64_t v, std::int32_t min_log, std::int32_t max_log) noexcept {
  return v > max_log   ? max_log
         : v < min_log ? min_log
                       : static_cast<std::int32_t>(v);
}

/// How many low bits of a log word the power units' shared lookup table
/// drops: F - table_bits for a table narrower than the format, else 0.
[[nodiscard]] constexpr int lns_table_drop(int frac_bits,
                                           int table_bits) noexcept {
  return table_bits > 0 && table_bits < frac_bits ? frac_bits - table_bits : 0;
}

/// `l` rounded to the nearest multiple of 2^drop, ties toward +inf.
/// Branch-free in l — a mask, not a shift pair — so that the bit-exact
/// lane loop (grape/pipeline.cpp) vectorizes over it.
[[nodiscard]] constexpr std::int64_t lns_round_to_grid(std::int64_t l,
                                                       int drop) noexcept {
  const std::int64_t step = std::int64_t{1} << drop;
  return (l + step / 2) & -step;
}

/// The power units' shared lookup-table grid: drop mantissa resolution
/// below `table_bits` (round-to-nearest onto the coarser grid). Both
/// r^(-3/2) and r^(-1/2) read the same physical table, so both must see
/// exactly this grid (the PR-6 fix; static_asserts in lns.cpp).
[[nodiscard]] constexpr std::int64_t lns_table_grid(std::int64_t l,
                                                    int frac_bits,
                                                    int table_bits) noexcept {
  return lns_round_to_grid(l, lns_table_drop(frac_bits, table_bits));
}

/// Floor division of a log word by 2^shift, for |l| < 2^61: a logical
/// shift of the word biased by 2^62 (a multiple of 2^shift), so that it
/// vectorizes — AVX2 has no 64-bit arithmetic right shift.
[[nodiscard]] constexpr std::int64_t lns_floor_shift(std::int64_t l,
                                                     int shift) noexcept {
  constexpr std::uint64_t kBias = std::uint64_t{1} << 62;
  const std::uint64_t biased = static_cast<std::uint64_t>(l) + kBias;
  return static_cast<std::int64_t>(biased >> shift) -
         static_cast<std::int64_t>(kBias >> shift);
}

/// num / 2, rounded half away from zero (the power units' /2 shift), for
/// |num| < 2^61: floor((num + 1) / 2) for num >= 0, floor(num / 2) below.
[[nodiscard]] constexpr std::int64_t lns_half_away(std::int64_t num) noexcept {
  const auto nonnegative =
      static_cast<std::int64_t>(static_cast<std::uint64_t>(~num) >> 63);
  return lns_floor_shift(num + nonnegative, 1);
}

/// All ones for 0 < m < 2^63, 0 for m == 0: the zero-tag mask of a
/// magnitude, from a subtraction and a logical shift rather than a 64-bit
/// compare (SSE2 has none).
[[nodiscard]] constexpr std::uint64_t lns_nonzero_mask(
    std::uint64_t m) noexcept {
  return -((0 - m) >> 63);
}

/// Integer part q of the exp2-table decode split logval = q * 2^F + r
/// (floor division) ...
[[nodiscard]] constexpr std::int64_t lns_exp2_split_q(std::int64_t logval,
                                                      int frac_bits) noexcept {
  return lns_floor_shift(logval, frac_bits);
}
/// ... and the fraction-table index r, always in [0, 2^F) (asserted at
/// compile time in lns.cpp for the format range edges).
[[nodiscard]] constexpr std::int64_t lns_exp2_split_r(std::int64_t logval,
                                                      int frac_bits) noexcept {
  return logval & ((std::int64_t{1} << frac_bits) - 1);
}

}  // namespace g5::math
