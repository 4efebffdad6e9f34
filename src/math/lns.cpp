#include "math/lns.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace g5::math {

namespace {
/// Widest F the codec supports: the packed encode table holds 2^(F+1)
/// words (1 MiB at F = 16) and the decode table 2^F doubles. Nothing in
/// the repository uses more than 16 (bench_e3_accuracy sweeps to 12).
constexpr int kMaxFracBits = 16;

// ------------------------------------------------------------------
// Exact encode thresholds. The word for mantissa m in [1, 2) rounds up
// past fraction code k-1 once m exceeds t_k = 2^((2k-1) / 2^(F+1)), i.e.
// once m^(2^(F+1)) > 2^(2k-1). The threshold table stores, per k, the
// smallest 52-bit mantissa field M whose m = 1 + M * 2^-52 lies above
// t_k. The comparison is decided exactly: F+1 repeated squarings of m in
// 128-bit interval arithmetic (one bound rounded down, one up) bracket
// m^(2^(F+1)), and the bracket must clear the power of two or the table
// build throws. It does whenever m is more than ~2^-120 (relative) from
// t_k; the closest double to any threshold is 2^-70.7 away (F = 16; at
// F = 8, 2^-63.6, under one long-double ulp).
// ------------------------------------------------------------------

/// mant * 2^exp, the 128-bit mantissa normalised into [2^127, 2^128)
/// (four 32-bit limbs, least significant first).
struct WideValue {
  std::array<std::uint32_t, 4> mant{};
  std::int64_t exp = 0;
};

/// x^2, keeping the top 128 bits of the 256-bit product rounded down
/// (`round_up` false) or up.
WideValue square(const WideValue& x, bool round_up) {
  std::array<std::uint32_t, 8> p{};
  for (std::size_t i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      const std::uint64_t t =
          std::uint64_t{x.mant[i]} * x.mant[k] + p[i + k] + carry;
      p[i + k] = static_cast<std::uint32_t>(t);
      carry = t >> 32;
    }
    p[i + 4] = static_cast<std::uint32_t>(carry);
  }
  // p lies in [2^254, 2^256): shift right by 128 or 127 to renormalise.
  WideValue out;
  bool inexact = false;
  if ((p[7] >> 31) != 0) {
    for (std::size_t i = 0; i < 4; ++i) {
      out.mant[i] = p[i + 4];
      inexact = inexact || p[i] != 0;
    }
    out.exp = 2 * x.exp + 128;
  } else {
    for (std::size_t i = 0; i < 4; ++i) {
      out.mant[i] = (p[i + 3] >> 31) | (p[i + 4] << 1);
      inexact = inexact || (i < 3 ? p[i] != 0 : (p[3] << 1) != 0);
    }
    out.exp = 2 * x.exp + 127;
  }
  if (round_up && inexact) {
    bool carry = true;
    for (std::size_t i = 0; i < 4 && carry; ++i) {
      ++out.mant[i];
      carry = out.mant[i] == 0;
    }
    if (carry) {  // all ones + 1 = 2^128: renormalise
      out.mant[3] = std::uint32_t{1} << 31;
      ++out.exp;
    }
  }
  return out;
}

/// Whether 1 + M * 2^-52 lies above t_k = 2^((2k-1) / 2^(F+1)), decided
/// exactly (equality is impossible: t_k is irrational).
bool above_threshold(std::uint64_t mantissa_field, std::int64_t k, int f) {
  WideValue lo;
  const std::uint64_t m = (std::uint64_t{1} << 52) | mantissa_field;
  lo.mant[2] = static_cast<std::uint32_t>(m << 11);
  lo.mant[3] = static_cast<std::uint32_t>((m << 11) >> 32);
  lo.exp = -127;  // m << 75 carries 52 + 75 fractional bits
  WideValue hi = lo;
  for (int s = 0; s <= f; ++s) {
    lo = square(lo, false);
    hi = square(hi, true);
  }
  // A normalised value lies in [2^(exp+127), 2^(exp+128)).
  const std::int64_t boundary = 2 * k - 1;
  if (lo.exp + 127 >= boundary) return true;
  if (hi.exp + 127 < boundary) return false;
  throw std::logic_error("LNS encode threshold within the interval margin");
}

/// Smallest mantissa field above t_k for k = 1 .. 2^F (ascending).
std::vector<std::uint64_t> encode_thresholds(int f) {
  const std::int64_t count = std::int64_t{1} << f;
  std::vector<std::uint64_t> out(static_cast<std::size_t>(count));
  for (std::int64_t k = 1; k <= count; ++k) {
    // libm's exp2 is within an ulp or two of t_k; the exact check walks
    // the guess onto the boundary.
    const double guess =
        std::exp2(std::ldexp(static_cast<double>(2 * k - 1), -(f + 1)));
    std::uint64_t m =
        std::bit_cast<std::uint64_t>(guess) & ((std::uint64_t{1} << 52) - 1);
    while (!above_threshold(m, k, f)) ++m;
    while (m > 0 && above_threshold(m - 1, k, f)) --m;
    out[static_cast<std::size_t>(k - 1)] = m;
  }
  return out;
}

// ------------------------------------------------------------------
// Compile-time pins of the PR-6 table-grid invariants, on the constexpr
// log-domain ALU the runtime format calls (math/domain.hpp). These used
// to live only in tests/math_lns_test.cpp; a regression now fails the
// build of this TU instead of a test run.
// ------------------------------------------------------------------

/// Log word of pow_neg_3_2 / pow_neg_1_2 before saturation — exactly the
/// expressions LnsFormat::pow_neg_* evaluate.
constexpr std::int64_t pow32_log(std::int64_t l, int f, int t) {
  return lns_half_away(-3 * lns_table_grid(l, f, t));
}
constexpr std::int64_t pow12_log(std::int64_t l, int f, int t) {
  return lns_half_away(-lns_table_grid(l, f, t));
}

// One physical lookup table feeds both power units: inputs that collapse
// onto the same table grid point must produce identical outputs from
// *each* unit (F=10, 4 table bits: grid step 64; 1000 and 1020 both
// round to 1024 — the exact fixture the runtime test uses).
static_assert(lns_table_grid(1000, 10, 4) == 1024);
static_assert(lns_table_grid(1020, 10, 4) == 1024);
static_assert(pow32_log(1000, 10, 4) == pow32_log(1020, 10, 4));
static_assert(pow12_log(1000, 10, 4) == pow12_log(1020, 10, 4));
// table_bits = 0 (full resolution) and table_bits = F are both identity
// grids — the ablation knob's rails.
static_assert(lns_table_grid(12345, 8, 0) == 12345);
static_assert(lns_table_grid(12345, 8, 8) == 12345);
// Grid rounding is to-nearest (ties toward +inf, the adder's bias) on
// both log half-planes: -1000 is 24 counts from -1024, 40 from -960.
static_assert(lns_table_grid(-1000, 10, 4) == -1024);
static_assert(lns_table_grid(-992, 10, 4) == -960);  // the tie rounds up
static_assert(lns_half_away(-3) == -2 && lns_half_away(3) == 2);

// The branch-free ALU forms (a mask for the grid, biased logical shifts
// for the floors) against their plain definitions — the shift pair and
// the sign split — on every word of a range and at the int32 carrier's
// edges, scaled as the power units scale them.
constexpr std::int64_t grid_reference(std::int64_t l, int f, int t) {
  if (t <= 0 || t >= f) return l;
  const int drop = f - t;
  return ((l + (std::int64_t{1} << (drop - 1))) >> drop) << drop;
}
constexpr std::int64_t half_away_reference(std::int64_t n) {
  return n >= 0 ? (n + 1) / 2 : -((-n + 1) / 2);
}
constexpr bool alu_matches_reference() {
  constexpr std::int64_t kEdge = std::numeric_limits<std::int32_t>::max();
  for (const std::int64_t base : {std::int64_t{0}, 3 * kEdge, -3 * kEdge}) {
    for (std::int64_t l = base - 2100; l <= base + 2100; ++l) {
      if (lns_half_away(l) != half_away_reference(l)) return false;
      if (lns_exp2_split_q(l, 8) != (l >> 8)) return false;
      if (lns_exp2_split_r(l, 8) != l - ((l >> 8) << 8)) return false;
      for (const int t : {0, 3, 7, 8, 9}) {
        if (lns_table_grid(l, 8, t) != grid_reference(l, 8, t)) return false;
      }
    }
  }
  return true;
}
static_assert(alu_matches_reference());
static_assert(lns_nonzero_mask(0) == 0);
static_assert(lns_nonzero_mask(1) == ~std::uint64_t{0});
static_assert(lns_nonzero_mask((std::uint64_t{1} << 63) - 1) ==
              ~std::uint64_t{0});

// exp2-table decode split: the fraction index r = logval - (q << F) must
// stay inside the table for every representable word, including both
// range edges (production format F=8/exp 12, and the widest format
// F=16/exp 16).
constexpr bool exp2_split_in_range(int f, int e) {
  const std::int32_t lo = lns_min_log(f, e);
  const std::int32_t hi = lns_max_log(f, e);
  const std::int64_t entries = std::int64_t{1} << f;
  for (const std::int32_t lv : {lo, lo + 1, std::int32_t{-1}, std::int32_t{0},
                                std::int32_t{1}, hi - 1, hi}) {
    const std::int64_t r = lns_exp2_split_r(lv, f);
    if (r < 0 || r >= entries) return false;
    // The split must reassemble exactly: logval == q * 2^F + r.
    if ((static_cast<std::int64_t>(lns_exp2_split_q(lv, f)) << f) + r != lv) {
      return false;
    }
  }
  return true;
}
static_assert(exp2_split_in_range(8, 12));
static_assert(exp2_split_in_range(kMaxFracBits, 16));
static_assert(exp2_split_in_range(1, 4));  // the narrowest format
static_assert(exp2_split_in_range(5, 8));  // the GRAPE-3 ablation format

// Format word range: the production format's rails, as the hardware
// tables assume them.
static_assert(lns_max_log(8, 12) == (1 << 19) - 1);
static_assert(lns_min_log(8, 12) == -(1 << 19));
static_assert(lns_saturate(std::int64_t{1} << 40, lns_min_log(8, 12),
                           lns_max_log(8, 12)) == lns_max_log(8, 12));
// The widest format fills the int32 code carrier exactly.
static_assert(lns_max_log(kMaxFracBits, 16) ==
              std::numeric_limits<std::int32_t>::max());
static_assert(lns_min_log(kMaxFracBits, 16) ==
              std::numeric_limits<std::int32_t>::min());
static_assert(lns_saturate(-(std::int64_t{1} << 40), lns_min_log(8, 12),
                           lns_max_log(8, 12)) == lns_min_log(8, 12));
}  // namespace

LnsFormat::LnsFormat(int frac_bits, int exp_bits)
    : frac_bits_(frac_bits), exp_bits_(exp_bits) {
  if (frac_bits < 1 || frac_bits > kMaxFracBits) {
    throw std::invalid_argument("LNS frac_bits out of range [1,16]");
  }
  if (exp_bits < 4 || exp_bits > 16) {
    throw std::invalid_argument("LNS exp_bits out of range [4,16]");
  }
  max_log_ = lns_max_log(frac_bits, exp_bits);
  min_log_ = lns_min_log(frac_bits, exp_bits);
  rel_step_ = std::exp2(std::ldexp(1.0, -frac_bits)) - 1.0;

  // Encode buckets: the top F+1 mantissa bits. Thresholds are at least
  // ln2 * 2^-F > 2^-(F+1) apart in m, so a bucket holds at most one.
  low_bits_ = 52 - (frac_bits + 1);
  const std::uint64_t width = std::uint64_t{1} << low_bits_;  // of a bucket
  low_mask_ = width - 1;
  const std::vector<std::uint64_t> thresholds = encode_thresholds(frac_bits);
  const std::size_t buckets = std::size_t{1} << (frac_bits + 1);
  encode_table_.resize(buckets);
  std::size_t next = 0;  // first threshold not at or below the bucket start
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::uint64_t start = std::uint64_t{b} << low_bits_;
    while (next < thresholds.size() && thresholds[next] <= start) ++next;
    const auto inside = [&](std::size_t k) {
      return k < thresholds.size() && thresholds[k] < start + width;
    };
    std::uint64_t threshold = width;  // none: the low bits never reach it
    if (inside(next)) {
      if (inside(next + 1)) {
        throw std::logic_error("two LNS encode thresholds in one bucket");
      }
      threshold = thresholds[next] - start;
    }
    encode_table_[b] = (std::uint64_t{next} << low_bits_) + (width - threshold);
  }

  const std::size_t entries = std::size_t{1} << frac_bits;
  exp2_table_.resize(entries);
  for (std::size_t r = 0; r < entries; ++r) {
    exp2_table_[r] = std::bit_cast<std::uint64_t>(
        std::exp2(std::ldexp(static_cast<double>(r), -frac_bits)));
  }
}

void LnsFormat::set_table_index_bits(int bits) {
  if (bits < 0 || bits > frac_bits_) {
    throw std::invalid_argument("table_index_bits must be in [0, frac_bits]");
  }
  table_bits_ = bits;
  table_drop_ = lns_table_drop(frac_bits_, bits);
}

}  // namespace g5::math
