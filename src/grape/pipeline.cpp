#include "grape/pipeline.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/isa.hpp"

namespace g5::grape {

using math::Fixed20;
using math::FixedDelta;
using math::LnsValue;

namespace {

/// The smallest power of two >= q, for a finite q > 0 (any other q is
/// returned as it is, for Pipeline::configure to reject).
double round_up_to_power_of_two(double q) noexcept {
  if (!(q > 0.0) || !std::isfinite(q)) return q;
  int e = 0;
  const double f = std::frexp(q, &e);  // q = f * 2^e, f in [0.5, 1)
  return std::ldexp(1.0, f == 0.5 ? e - 1 : e);
}

bool is_power_of_two(double q) noexcept {
  int e = 0;
  return std::isnormal(q) && std::frexp(q, &e) == 0.5;
}

}  // namespace

void derive_scaling_quanta(PipelineScaling& s, double mass_scale) noexcept {
  const double m = mass_scale > 0.0 ? mass_scale : 1.0;
  if (s.eps > 0.0) {
    // The softening bound of a call that streams mass m, over 2^49.
    const double force = round_up_to_power_of_two(
        m * kForceBoundPerMass / (s.eps * s.eps) *
        std::ldexp(1.0, -kBoundHeadroomBits));
    const double potential = round_up_to_power_of_two(
        m / s.eps * std::ldexp(1.0, -kBoundHeadroomBits));
    if (is_power_of_two(force) && is_power_of_two(potential)) {
      s.force_quantum = force;
      s.potential_quantum = potential;
      return;
    }
  }
  const double width = s.range_hi - s.range_lo;
  s.force_quantum = round_up_to_power_of_two(
      m / (width * width) * std::ldexp(1.0, -kAccumulatorGuardBits));
  s.potential_quantum = round_up_to_power_of_two(
      m / width * std::ldexp(1.0, -kAccumulatorGuardBits));
}

PipelineScaling SnapshotWindow::scaling(double eps) const noexcept {
  PipelineScaling s;
  s.range_lo = lo;
  s.range_hi = hi;
  s.eps = eps;
  derive_scaling_quanta(s, mass_scale);
  return s;
}

SnapshotWindow snapshot_window(const Vec3d& box_lo, const Vec3d& box_hi,
                               std::span<const double> mass) noexcept {
  const double size = std::max((box_hi - box_lo).max_component(), 1e-12) * 1.25;
  const Vec3d c = 0.5 * (box_lo + box_hi);
  const double half = 0.5 * size;
  double total = 0.0;
  for (double m : mass) total += std::fabs(m);
  if (!(total > 0.0) || !std::isfinite(total)) total = 1.0;
  return {c.min_component() - half, c.max_component() + half, total};
}

namespace {

/// The staged Native path holds coordinate codes in doubles; their
/// differences are exact only while a code fits the 53-bit significand.
int checked_position_bits(int bits) {
  if (bits > std::numeric_limits<double>::digits) {
    throw std::invalid_argument(
        "position_bits > 53: coordinate differences would not be exact in "
        "the Native datapath");
  }
  return bits;
}

/// The staged coordinate codes are doubles; a non-finite coordinate has
/// no code (FixedPointCodec::encode would convert NaN to an integer).
void require_finite(const Vec3d& pos, const char* what) {
  if (!std::isfinite(pos[0]) || !std::isfinite(pos[1]) ||
      !std::isfinite(pos[2])) {
    throw std::invalid_argument(std::string("non-finite ") + what +
                                " coordinate");
  }
}

}  // namespace

Pipeline::Pipeline(const PipelineNumerics& numerics)
    : numerics_(numerics),
      lns_(numerics.lns_frac_bits),
      codec_(-1.0, 1.0, checked_position_bits(numerics.position_bits)) {
  lns_.set_table_index_bits(numerics.table_index_bits);
  configure(PipelineScaling{});
}

void Pipeline::configure(const PipelineScaling& scaling) {
  if (!(scaling.range_hi > scaling.range_lo)) {
    throw std::invalid_argument("pipeline range window empty");
  }
  if (!is_power_of_two(scaling.force_quantum) ||
      !is_power_of_two(scaling.potential_quantum)) {
    throw std::invalid_argument(
        "accumulator quanta must be finite, normal powers of two");
  }
  scaling_ = scaling;
  codec_ = math::FixedPointCodec(scaling.range_lo, scaling.range_hi,
                                 numerics_.position_bits);
  eps2_ = scaling.eps * scaling.eps;
  inv_force_quantum_ = 1.0 / scaling.force_quantum;
  inv_potential_quantum_ = 1.0 / scaling.potential_quantum;
  // The count caps per unit mass (docs/hardware.md, "Capacity"): the
  // softening bound in counts, times the FP slack and, for the bit-exact
  // datapath, the LNS slack. A pair of mass m adds at most m * cap + 1
  // rounded counts to a register. Without a normal eps^2 there is no
  // bound: the caps are infinite and every tile drains.
  if (std::isnormal(eps2_)) {
    double slack = 1.0 + 0x1p-10;
    if (numerics_.backend == BackendKind::BitExact) {
      // Units of the log word's last place the datapath can gain over
      // the bound: 1/2 for the power unit's /2 rounding, and the r^2
      // re-encoding's 1/2 plus the table grid's half step (2^(drop-1)
      // units), both raised to the -3/2 power; 1/2 more for the mass
      // word is margin (evaluate sums the decoded words): 1.75 +
      // 1.5 * grid, rounded up to 2 + 1.5 * grid.
      const int drop =
          math::lns_table_drop(lns_.frac_bits(), lns_.table_index_bits());
      const double grid = drop > 0 ? std::ldexp(1.0, drop - 1) : 0.0;
      slack *= std::exp2(std::ldexp(2.0 + 1.5 * grid, -lns_.frac_bits()));
    }
    force_count_cap_ =
        kForceBoundPerMass / eps2_ * slack * inv_force_quantum_;
    potential_count_cap_ =
        1.0 / std::sqrt(eps2_) * slack * inv_potential_quantum_;
  } else {
    force_count_cap_ = std::numeric_limits<double>::infinity();
    potential_count_cap_ = std::numeric_limits<double>::infinity();
  }
  count_cap_ = std::max(force_count_cap_, potential_count_cap_);
}

JWord Pipeline::encode_j(const Vec3d& pos, double mass) const {
  require_finite(pos, "j-particle");
  JWord j;
  for (std::size_t c = 0; c < 3; ++c) j.x[c] = codec_.encode(pos[c]);
  j.mass = lns_.from_double(mass);
  j.mass_exact = mass;
  return j;
}

double Pipeline::force_accumulator_quantum() const noexcept {
  return scaling_.force_quantum;
}

double Pipeline::potential_accumulator_quantum() const noexcept {
  return scaling_.potential_quantum;
}

void Pipeline::convert_raw(const RawForce& raw, Vec3d& acc,
                           double& pot) const noexcept {
  const double fq = force_accumulator_quantum();
  acc = Vec3d{static_cast<double>(raw.acc[0]) * fq,
              static_cast<double>(raw.acc[1]) * fq,
              static_cast<double>(raw.acc[2]) * fq};
  pot = static_cast<double>(raw.pot) * potential_accumulator_quantum();
}

void Pipeline::evaluate(std::span<const JWord> j,
                        std::span<const Vec3d> targets,
                        std::span<RawForce> out, EvalStage& stage) const {
  if (out.size() != targets.size()) {
    throw std::invalid_argument("raw output span arity mismatch");
  }
  for (const Vec3d& t : targets) require_finite(t, "target");
  std::fill(out.begin(), out.end(), RawForce{});
  const bool native = numerics_.backend == BackendKind::Native;
  // Every buffer is one tile long (the sums one entry per stream and
  // block), whatever the stream length. The pair loops write every
  // padded lane of the count streams, and the block-sum pass every block.
  for (auto* v : {&stage.x, &stage.y, &stage.z, &stage.cx, &stage.cy,
                  &stage.cz, &stage.cp}) {
    v->resize(kTileLength);
  }
  if (native) {
    stage.m.resize(kTileLength);
  } else {
    stage.mlog.resize(kTileLength);
    stage.msign.resize(kTileLength);
    stage.mlive.resize(kTileLength);
  }
  stage.sums.resize(4 * (kTileLength / kBatchWidth));
  // The capacity check, once per tile for every target: the registers
  // start the call at zero, and while the call's running sum of |m_j|
  // times the count cap, plus its pairs, stays within the capacity, no
  // register can leave [-capacity, capacity] (docs/hardware.md). It
  // only grows along the stream, so the drain takes over at the first
  // tile that fails it.
  double mass = 0.0;
  for (std::size_t base = 0; base < j.size(); base += kTileLength) {
    const std::span<const JWord> tile =
        j.subspan(base, std::min(kTileLength, j.size() - base));
    const std::size_t blocks = (tile.size() + kBatchWidth - 1) / kBatchWidth;
    mass += stage_tile(tile, blocks * kBatchWidth, stage);
    const bool within_capacity =
        mass * count_cap_ + static_cast<double>(base + tile.size()) <=
        count_capacity();
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const Fixed20 xi[3] = {codec_.encode(targets[i][0]),
                             codec_.encode(targets[i][1]),
                             codec_.encode(targets[i][2])};
      evaluate_tile(xi, tile, blocks, within_capacity, stage, out[i]);
    }
  }
}

double Pipeline::stage_tile(std::span<const JWord> tile, std::size_t padded,
                            EvalStage& stage) const {
  // The codes as doubles (exact, see checked_position_bits), padded with
  // zero-mass lanes, whose counts are zero.
  for (std::size_t k = 0; k < tile.size(); ++k) {
    stage.x[k] = static_cast<double>(tile[k].x[0].code());
    stage.y[k] = static_cast<double>(tile[k].x[1].code());
    stage.z[k] = static_cast<double>(tile[k].x[2].code());
  }
  for (auto* v : {&stage.x, &stage.y, &stage.z}) {
    std::fill(v->begin() + static_cast<std::ptrdiff_t>(tile.size()),
              v->begin() + static_cast<std::ptrdiff_t>(padded), 0.0);
  }
  double mass = 0.0;
  if (numerics_.backend == BackendKind::Native) {
    for (std::size_t k = 0; k < tile.size(); ++k) {
      stage.m[k] = tile[k].mass_exact;
      mass += std::fabs(tile[k].mass_exact);
    }
    std::fill(stage.m.begin() + static_cast<std::ptrdiff_t>(tile.size()),
              stage.m.begin() + static_cast<std::ptrdiff_t>(padded), 0.0);
    return mass;
  }
  for (std::size_t k = 0; k < padded; ++k) {
    const math::LnsLane w = k < tile.size()
                                ? math::LnsFormat::lane(tile[k].mass)
                                : math::LnsLane{};  // the zero tag
    stage.mlog[k] = w.log;
    stage.msign[k] = w.sign;
    stage.mlive[k] = w.live;
  }
  // The masses the datapath reads: the words, not mass_exact.
  for (const JWord& w : tile) mass += std::fabs(lns_.to_double(w.mass));
  return mass;
}

// g5lint: hot-begin(pipeline-batch) — the per-interaction kernels; no
// allocation, no unreserved growth (the lane buffers are the caller's
// EvalStage).
namespace {

/// Fast-path bounds of one drained block: every count within 2^59 and
/// every accumulator at least W * 2^59 below the rail, so no partial sum
/// of the block can reach the rail and the block's int64 sum is exact.
constexpr double kBlockCountBound = 0x1p59;
constexpr std::int64_t kBlockAccumulatorBound =
    math::kAccumulatorRail - static_cast<std::int64_t>(Pipeline::batch_width()) *
                                 (std::int64_t{1} << 59);

/// Adding 1.5 * 2^52 rounds a double of magnitude at most 2^51 to an
/// integer exactly (round to nearest even, as std::rint); the integer is
/// then the low bits of the sum's representation. Adding 1.5 * 2^84
/// rounds one below 2^83 to a multiple of 2^32 the same way.
constexpr double kRoundMagic = 0x1.8p52;
constexpr double kHighMagic = 0x1.8p84;
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};
constexpr std::uint64_t kOneBits = std::bit_cast<std::uint64_t>(1.0);
constexpr std::uint64_t kRoundMagicBits =
    std::bit_cast<std::uint64_t>(kRoundMagic);
constexpr std::uint64_t kHighMagicBits =
    std::bit_cast<std::uint64_t>(kHighMagic);

/// Negative iff |c| > 2^59 or c is not finite: the magnitude bits of a
/// double order like the values, NaN and inf above every finite one. A
/// subtraction rather than a compare, so that an OR over many lanes
/// stays a vectorizable integer reduction.
std::int64_t count_margin(double c) {
  constexpr std::int64_t kMagnitudeBits =
      std::numeric_limits<std::int64_t>::max();
  return std::bit_cast<std::int64_t>(kBlockCountBound) -
         (std::bit_cast<std::int64_t>(c) & kMagnitudeBits);
}

/// rint(c) of a count below 2^83 in magnitude, in two halves that sum
/// over many counts as plain integers: h = c + 1.5 * 2^84 - 1.5 * 2^84 is
/// c rounded to a multiple of 2^32 (ties to an even multiple), c - h is
/// exact and at most 2^31 in magnitude, and rint(c) = h + rint(c - h).
/// Adds bits(c + 1.5 * 2^84) to `high` and bits((c - h) + 1.5 * 2^52) to
/// `low`, wrapping; rounded_sum takes the magic constants back out.
[[gnu::always_inline]] inline void add_rounded_halves(double c,
                                                      std::uint64_t& high,
                                                      std::uint64_t& low) {
  const double hm = c + kHighMagic;
  high += std::bit_cast<std::uint64_t>(hm);
  low += std::bit_cast<std::uint64_t>((c - (hm - kHighMagic)) + kRoundMagic);
}

/// The sum of rint(c) over the n counts add_rounded_halves summed into
/// `high` and `low`, modulo 2^64 (exact whenever the sum is below 2^63 in
/// magnitude).
std::int64_t rounded_sum(std::uint64_t high, std::uint64_t low,
                         std::uint64_t n) {
  return static_cast<std::int64_t>(((high - n * kHighMagicBits) << 32) +
                                   (low - n * kRoundMagicBits));
}

/// One target of the pair arithmetic (either backend): its coordinate
/// codes and the call's constants.
struct PairTarget {
  double xi, yi, zi;
  double quantum, eps2, inv_force_quantum, inv_potential_quantum;
};

/// One pair's four counts: x, y, z force and potential.
struct PairCounts {
  double x, y, z, p;
};

/// The Native pair arithmetic — its one definition, inlined into both
/// pair loops: the four counts of the pair (target t, staged j at codes
/// x, y, z with mass m), m rinv^3 d / force quantum and -m rinv /
/// potential quantum, the divisions done as multiplies by the exact
/// reciprocals of the power-of-two quanta (bitwise the same, inf and NaN
/// included). Branch-free, so the loops around it vectorize at -O2: the
/// coincidence cut is an integer mask on the bits of the exact
/// integer-valued ex^2 + ey^2 + ez^2 (math::lns_nonzero_mask) — GCC
/// splits a `cond ? 0.0 : 1.0` there into a branch around `live * m`.
/// A cut lane gets weight 0 and r^2 + 1 (a finite rinv), a live lane
/// weight 1 and r^2 + 0, both exact.
/// The eps == 0 divergent corner is not cut: its counts are not finite,
/// which sends its block down the drain's slow path (an eps == 0 tile
/// always drains), where patch_divergent_corner fixes them.
[[gnu::always_inline]] inline PairCounts native_pair(const PairTarget& t,
                                                     double x, double y,
                                                     double z, double m) {
  const double ex = x - t.xi;
  const double ey = y - t.yi;
  const double ez = z - t.zi;
  const double live = std::bit_cast<double>(
      kOneBits & math::lns_nonzero_mask(
                     std::bit_cast<std::uint64_t>(ex * ex + ey * ey + ez * ez)));
  const double dx = ex * t.quantum;
  const double dy = ey * t.quantum;
  const double dz = ez * t.quantum;
  const double r2 = dx * dx + dy * dy + dz * dz + t.eps2;
  const double rinv = 1.0 / std::sqrt(r2 + (1.0 - live));
  const double wm = live * m;
  const double mg = wm * (rinv * rinv * rinv);
  return {mg * dx * t.inv_force_quantum, mg * dy * t.inv_force_quantum,
          mg * dz * t.inv_force_quantum,
          -(wm * rinv) * t.inv_potential_quantum};
}

/// One target's tile: the sum of rint(count) per register (x, y, z,
/// potential), and whether a live lane was flagged (BitExact only; the
/// sums are then not the datapath's).
struct TileSums {
  std::int64_t sum[4];
  bool flagged = false;
};

/// Stage 2's fast path, the ending of both backends' pair loops: over the
/// n lanes of a staged tile, sums every pair's rounded counts itself — no
/// count streams, no block pass. `pair(k)` is the backend's pair
/// arithmetic on lane k (native_pair or lns_pair).
///
/// Only for a tile inside the capacity check (Pipeline::evaluate), where
/// every count is at most 2^50 in magnitude: then c + 1.5 * 2^52 rounds c
/// to rint(c) exactly, its bits are bits(1.5 * 2^52) + rint(c), and the
/// register's sum is one FP add and one integer add per count, summed as
/// wrapping uint64 with n magic bits taken out once per tile. The true
/// sum is at most 2^50 in magnitude, so the wrapped one is exact.
/// Padding lanes have zero counts. The trip count is a multiple of the
/// block inside the kernels: GCC's -O2 cost model vectorizes no loop
/// that needs an epilogue.
template <class Pair>
[[gnu::always_inline]] inline TileSums sum_tile(std::size_t n, Pair pair) {
  std::uint64_t x = 0, y = 0, z = 0, p = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const PairCounts c = pair(k);
    x += std::bit_cast<std::uint64_t>(c.x + kRoundMagic);
    y += std::bit_cast<std::uint64_t>(c.y + kRoundMagic);
    z += std::bit_cast<std::uint64_t>(c.z + kRoundMagic);
    p += std::bit_cast<std::uint64_t>(c.p + kRoundMagic);
  }
  const std::uint64_t magic = n * kRoundMagicBits;
  return {{static_cast<std::int64_t>(x - magic),
           static_cast<std::int64_t>(y - magic),
           static_cast<std::int64_t>(z - magic),
           static_cast<std::int64_t>(p - magic)}};
}

/// Stage 2, Native's fast path: sum_tile over native_pair, on a staged
/// tile of `blocks` blocks.
G5_ISA_CLONES
TileSums native_tile_sums(std::size_t blocks, const double* __restrict x,
                          const double* __restrict y,
                          const double* __restrict z,
                          const double* __restrict m, PairTarget t) {
  const auto pair = [&](std::size_t k) __attribute__((always_inline)) {
    return native_pair(t, x[k], y[k], z[k], m[k]);
  };
  return sum_tile(blocks * Pipeline::batch_width(), pair);
}

/// Native's fallback pair loop: the same pair arithmetic into the
/// target's four count streams, for the block drain. Returns whether
/// every count is within kBlockCountBound.
G5_ISA_CLONES
bool native_counts(std::size_t blocks, const double* __restrict x,
                   const double* __restrict y, const double* __restrict z,
                   const double* __restrict m, PairTarget t,
                   double* __restrict cx, double* __restrict cy,
                   double* __restrict cz, double* __restrict cp) {
  const std::size_t n = blocks * Pipeline::batch_width();
  std::int64_t margin = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const PairCounts c = native_pair(t, x[k], y[k], z[k], m[k]);
    cx[k] = c.x;
    cy[k] = c.y;
    cz[k] = c.z;
    cp[k] = c.p;
    margin |= count_margin(c.x) | count_margin(c.y) | count_margin(c.z) |
              count_margin(c.p);
  }
  return margin >= 0;
}

/// The eps == 0 divergent corner: a non-coincident pair whose r^2
/// underflows to zero, where native_pair's rinv is infinite (so the
/// potential count of entry k is not finite). The bit-exact datapath
/// saturates there — an infinite potential well, force along the
/// components that survived in double — so the counts become +-inf per
/// nonzero component, 0 per zero component and -inf for the potential,
/// each with the sign of m (m < 0 gives -1); native_pair leaves NaN
/// where a component or m is zero. Leaves any other entry's counts as
/// they are.
void patch_divergent_corner(const EvalStage& stage, std::size_t k,
                            double xi, double yi, double zi, double quantum,
                            double eps2, double (&c)[4]) {
  const double ex = stage.x[k] - xi;
  const double ey = stage.y[k] - yi;
  const double ez = stage.z[k] - zi;
  if (ex * ex + ey * ey + ez * ez == 0.0) return;
  const double dx = ex * quantum;
  const double dy = ey * quantum;
  const double dz = ez * quantum;
  if (dx * dx + dy * dy + dz * dz + eps2 != 0.0) return;
  const double inf = std::numeric_limits<double>::infinity();
  const double ms = stage.m[k] < 0.0 ? -1.0 : 1.0;
  c[0] = dx != 0.0 ? ms * std::copysign(inf, dx) : 0.0;
  c[1] = dy != 0.0 ? ms * std::copysign(inf, dy) : 0.0;
  c[2] = dz != 0.0 ? ms * std::copysign(inf, dz) : 0.0;
  c[3] = -(ms * inf);
}

bool block_in_bounds(const double* c) {
  std::int64_t margin = 0;
  for (std::size_t l = 0; l < Pipeline::batch_width(); ++l) {
    margin |= count_margin(c[l]);
  }
  return margin >= 0;
}

bool register_in_bounds(std::int64_t count) {
  return count <= kBlockAccumulatorBound && count >= -kBlockAccumulatorBound;
}

/// The exact sum of rint(c[l]) over one block of counts within 2^59
/// (add_rounded_halves). Wrapping unsigned arithmetic, so that a block
/// outside the bounds (which the drain never adds) yields some value
/// rather than overflow.
[[gnu::always_inline]] inline std::int64_t block_count_sum(const double* c) {
  std::uint64_t high = 0;
  std::uint64_t low = 0;
  for (std::size_t l = 0; l < Pipeline::batch_width(); ++l) {
    add_rounded_halves(c[l], high, low);
  }
  return rounded_sum(high, low, Pipeline::batch_width());
}

/// Stage 2b of the block drain: block_count_sum of every block of the
/// four count streams, into sums[4 b + {0, 1, 2, 3}] (x, y, z,
/// potential). One pass the compiler vectorizes; the drain adds the sums
/// of the blocks inside its bounds and ignores the rest.
G5_ISA_CLONES
void block_sums(std::size_t blocks, const double* __restrict cx,
                const double* __restrict cy, const double* __restrict cz,
                const double* __restrict cp, std::int64_t* __restrict sums) {
  constexpr std::size_t w = Pipeline::batch_width();
  for (std::size_t b = 0; b < blocks; ++b) {
    sums[4 * b] = block_count_sum(cx + w * b);
    sums[4 * b + 1] = block_count_sum(cy + w * b);
    sums[4 * b + 2] = block_count_sum(cz + w * b);
    sums[4 * b + 3] = block_count_sum(cp + w * b);
  }
}

/// The bit-exact pair arithmetic in lane form — its one definition,
/// inlined into both LNS pair loops: the four counts of the pair (target
/// t, staged j at codes x, y, z with mass word `mass`), in the datapath's
/// stage order; lns_pair_counts is the same arithmetic one pair at a
/// time. Branch-free, so that the loops around it vectorize at -O2: no
/// FP operation is conditional, every select is an integer AND with a
/// zero-tag mask (math::LnsLane), the floors are logical shifts, and the
/// x/y/z steps are written out. The table reads (11 per pair) are
/// gathers in the x86-64-v4 clones (pipeline.cpp builds with GCC's
/// use_gather tuning, src/grape/CMakeLists.txt). The products are not
/// saturated: in the pipeline's format (exp_bits 12) a product whose
/// scalar form clamps decodes outside the table split clamped or not, so
/// its lane is flagged either way. Sets the sign bit of `bad` when a
/// live lane (not cut, nonzero mass) met a case the table arithmetic
/// cannot do bitwise — a subnormal or non-finite |d| * quantum, a
/// subnormal, non-finite or zero r^2, a decode outside the table split;
/// its counts are then meaningless, and the caller recomputes the tile
/// through lns_pair_counts.
[[gnu::always_inline]] inline PairCounts lns_pair(const math::LnsFormat& lns,
                                                  const PairTarget& t, double x,
                                                  double y, double z,
                                                  const math::LnsLane& mass,
                                                  std::uint64_t& bad) {
  const double ex = x - t.xi;
  const double ey = y - t.yi;
  const double ez = z - t.zi;
  // The i == j cut (all three integer-valued differences zero) tags the
  // mass zero: the pair adds nothing.
  const std::uint64_t any_bits = std::bit_cast<std::uint64_t>(ex) |
                                 std::bit_cast<std::uint64_t>(ey) |
                                 std::bit_cast<std::uint64_t>(ez);
  const std::uint64_t live = math::lns_nonzero_mask(any_bits & ~kSignBit);
  const math::LnsLane m{mass.log, mass.sign, mass.live & live};
  std::uint64_t lane_bad = 0;
  const math::LnsLane dx = lns.encode_lane(ex * t.quantum, lane_bad);
  const math::LnsLane dy = lns.encode_lane(ey * t.quantum, lane_bad);
  const math::LnsLane dz = lns.encode_lane(ez * t.quantum, lane_bad);
  double r2 = t.eps2;
  r2 += lns.decode_lane(math::LnsFormat::mul_lane(dx, dx), lane_bad);
  r2 += lns.decode_lane(math::LnsFormat::mul_lane(dy, dy), lane_bad);
  r2 += lns.decode_lane(math::LnsFormat::mul_lane(dz, dz), lane_bad);
  const math::LnsLane r2w = lns.encode_lane(r2, lane_bad);
  lane_bad |= ~r2w.live;  // r^2 == 0: the power units' saturated input
  const math::LnsLane mg = math::LnsFormat::mul_lane(
      m, {lns.pow_neg_3_2_log(r2w.log), 0, kAllOnes});
  const math::LnsLane mh = math::LnsFormat::mul_lane(
      m, {lns.pow_neg_1_2_log(r2w.log), 0, kAllOnes});
  const PairCounts c{
      lns.decode_lane(math::LnsFormat::mul_lane(mg, dx), lane_bad) *
          t.inv_force_quantum,
      lns.decode_lane(math::LnsFormat::mul_lane(mg, dy), lane_bad) *
          t.inv_force_quantum,
      lns.decode_lane(math::LnsFormat::mul_lane(mg, dz), lane_bad) *
          t.inv_force_quantum,
      -lns.decode_lane(mh, lane_bad) * t.inv_potential_quantum};
  bad |= lane_bad & m.live;
  return c;
}

/// Stage 2, BitExact's fast path: sum_tile over lns_pair, on a staged
/// tile of `blocks` blocks. A flagged lane flags the tile: its sums are
/// not the datapath's.
G5_ISA_CLONES
TileSums lns_tile_sums(std::size_t blocks, const math::LnsFormat& lns,
                       const double* __restrict x, const double* __restrict y,
                       const double* __restrict z,
                       const std::int64_t* __restrict mlog,
                       const std::uint64_t* __restrict msign,
                       const std::uint64_t* __restrict mlive, PairTarget t) {
  std::uint64_t bad = 0;
  const auto pair = [&](std::size_t k) __attribute__((always_inline)) {
    return lns_pair(lns, t, x[k], y[k], z[k], {mlog[k], msign[k], mlive[k]},
                    bad);
  };
  TileSums s = sum_tile(blocks * Pipeline::batch_width(), pair);
  s.flagged = static_cast<std::int64_t>(bad) < 0;
  return s;
}

/// BitExact's fallback pair loop: lns_pair over a staged tile of
/// `blocks` blocks into the target's four count streams, for the block
/// drain. Returns false when a live lane was flagged (see lns_pair).
/// Sets `all_in_bounds` to whether every count is within
/// kBlockCountBound.
G5_ISA_CLONES
bool lns_counts(std::size_t blocks, const math::LnsFormat& lns,
                const double* __restrict x, const double* __restrict y,
                const double* __restrict z, const std::int64_t* __restrict mlog,
                const std::uint64_t* __restrict msign,
                const std::uint64_t* __restrict mlive, PairTarget t,
                double* __restrict cx, double* __restrict cy,
                double* __restrict cz, double* __restrict cp,
                bool& all_in_bounds) {
  const std::size_t n = blocks * Pipeline::batch_width();
  std::uint64_t bad = 0;
  std::int64_t margin = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const PairCounts c =
        lns_pair(lns, t, x[k], y[k], z[k], {mlog[k], msign[k], mlive[k]}, bad);
    cx[k] = c.x;
    cy[k] = c.y;
    cz[k] = c.z;
    cp[k] = c.p;
    margin |= count_margin(c.x) | count_margin(c.y) | count_margin(c.z) |
              count_margin(c.p);
  }
  all_in_bounds = margin >= 0;
  return static_cast<std::int64_t>(bad) >= 0;
}

}  // namespace

void Pipeline::evaluate_tile(const Fixed20 (&xi)[3],
                             std::span<const JWord> tile, std::size_t blocks,
                             bool within_capacity, EvalStage& stage,
                             RawForce& r) const {
  const PairTarget t{static_cast<double>(xi[0].code()),
                     static_cast<double>(xi[1].code()),
                     static_cast<double>(xi[2].code()),
                     codec_.quantum(),
                     eps2_,
                     inv_force_quantum_,
                     inv_potential_quantum_};
  const bool native = numerics_.backend == BackendKind::Native;
  const double* const x = stage.x.data();
  const double* const y = stage.y.data();
  const double* const z = stage.z.data();
  ++stage.tiles;
  // Stage 3: inside the capacity check the tile's exact sums are what
  // its pairs streamed one at a time would add, with no register near
  // the rail.
  if (within_capacity) [[likely]] {
    const TileSums s =
        native ? native_tile_sums(blocks, x, y, z, stage.m.data(), t)
               : lns_tile_sums(blocks, lns_, x, y, z, stage.mlog.data(),
                               stage.msign.data(), stage.mlive.data(), t);
    if (!s.flagged) [[likely]] {
      r.acc[0] += s.sum[0];
      r.acc[1] += s.sum[1];
      r.acc[2] += s.sum[2];
      r.pot += s.sum[3];
      return;
    }
  }
  ++stage.fallback_tiles;
  double* const cx = stage.cx.data();
  double* const cy = stage.cy.data();
  double* const cz = stage.cz.data();
  double* const cp = stage.cp.data();
  bool all_in_bounds = false;
  if (native) {
    all_in_bounds =
        native_counts(blocks, x, y, z, stage.m.data(), t, cx, cy, cz, cp);
  } else if (!lns_counts(blocks, lns_, x, y, z, stage.mlog.data(),
                         stage.msign.data(), stage.mlive.data(), t, cx, cy, cz,
                         cp, all_in_bounds)) [[unlikely]] {
    // A lane the table arithmetic cannot do bitwise: the whole tile
    // again, one pair at a time (the padding keeps its zero counts), and
    // the drain checks each block's bounds.
    for (std::size_t k = 0; k < tile.size(); ++k) {
      const std::array<double, 4> c = lns_pair_counts(xi, tile[k]);
      cx[k] = c[0];
      cy[k] = c[1];
      cz[k] = c[2];
      cp[k] = c[3];
    }
    all_in_bounds = false;
  }
  drain_tile(xi, tile.size(), all_in_bounds, stage, r);
}

void Pipeline::drain_tile(const Fixed20 (&xi)[3], std::size_t count,
                          bool all_in_bounds, EvalStage& stage,
                          RawForce& r) const {
  const bool native = numerics_.backend == BackendKind::Native;
  const std::size_t blocks = (count + kBatchWidth - 1) / kBatchWidth;
  const double* const cx = stage.cx.data();
  const double* const cy = stage.cy.data();
  const double* const cz = stage.cz.data();
  const double* const cp = stage.cp.data();
  block_sums(blocks, cx, cy, cz, cp, stage.sums.data());
  const std::int64_t* const sums = stage.sums.data();
  // Stage 3: drain block by block. A block inside the bounds adds its
  // exact int64 sums once per register; any other block adds its counts
  // one at a time, each rounded, clamped and latched on its own, in
  // stream order — so the registers equal a pair-by-pair stream and do
  // not depend on where block, tile or board-shard boundaries fall.
  for (std::size_t base = 0; base < count; base += kBatchWidth) {
    const bool fast =
        register_in_bounds(r.acc[0]) && register_in_bounds(r.acc[1]) &&
        register_in_bounds(r.acc[2]) && register_in_bounds(r.pot) &&
        (all_in_bounds ||
         (block_in_bounds(cx + base) && block_in_bounds(cy + base) &&
          block_in_bounds(cz + base) && block_in_bounds(cp + base)));
    if (fast) [[likely]] {
      const std::int64_t* const sum = sums + 4 * (base / kBatchWidth);
      r.acc[0] = math::rail_add(r.acc[0], sum[0], r.saturated);
      r.acc[1] = math::rail_add(r.acc[1], sum[1], r.saturated);
      r.acc[2] = math::rail_add(r.acc[2], sum[2], r.saturated);
      r.pot = math::rail_add(r.pot, sum[3], r.saturated);
      continue;
    }
    const std::size_t end = std::min(base + kBatchWidth, count);
    for (std::size_t k = base; k < end; ++k) {
      double c[4] = {cx[k], cy[k], cz[k], cp[k]};
      if (native && !std::isfinite(c[3])) [[unlikely]] {
        patch_divergent_corner(stage, k, static_cast<double>(xi[0].code()),
                               static_cast<double>(xi[1].code()),
                               static_cast<double>(xi[2].code()),
                               codec_.quantum(), eps2_, c);
      }
      for (std::size_t a = 0; a < 3; ++a) {
        r.acc[a] = math::rail_add(r.acc[a], math::rail_count(c[a], r.saturated),
                                  r.saturated);
      }
      r.pot = math::rail_add(r.pot, math::rail_count(c[3], r.saturated),
                             r.saturated);
    }
  }
}

std::array<double, 4> Pipeline::lns_pair_counts(const Fixed20 (&xi)[3],
                                                const JWord& jw) const {
  // Exact fixed-point differences and the i == j cut (the hardware's
  // coincidence detection keeps the softened self-potential -m/eps out
  // of the accumulators).
  const FixedDelta d0 = jw.x[0] - xi[0];
  const FixedDelta d1 = jw.x[1] - xi[1];
  const FixedDelta d2 = jw.x[2] - xi[2];
  if (math::coincident(d0, d1, d2)) return {};

  // The differences enter the log format (one conversion rounding per
  // component); squares are exact log shifts, summed with eps^2 by the
  // block-normalized adder (an exact add re-quantized to the format).
  const LnsValue dx = lns_.from_double(codec_.delta_to_double(d0));
  const LnsValue dy = lns_.from_double(codec_.delta_to_double(d1));
  const LnsValue dz = lns_.from_double(codec_.delta_to_double(d2));
  double r2 = eps2_;
  r2 += lns_.to_double(lns_.square(dx));
  r2 += lns_.to_double(lns_.square(dy));
  r2 += lns_.to_double(lns_.square(dz));
  const LnsValue r2w = lns_.from_double(r2);

  // Power units g = (r^2)^(-3/2), h = (r^2)^(-1/2) and the m*g,
  // m*g*dx, m*h products — integer adds on the log words — decoded
  // into counts of the accumulator quanta.
  const LnsValue mg = lns_.mul(jw.mass, lns_.pow_neg_3_2(r2w));
  const LnsValue mh = lns_.mul(jw.mass, lns_.pow_neg_1_2(r2w));
  return {lns_.to_double(lns_.mul(mg, dx)) * inv_force_quantum_,
          lns_.to_double(lns_.mul(mg, dy)) * inv_force_quantum_,
          lns_.to_double(lns_.mul(mg, dz)) * inv_force_quantum_,
          -lns_.to_double(mh) * inv_potential_quantum_};
}
// g5lint: hot-end

}  // namespace g5::grape
