#include "grape/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

// The Native kernels are built twice from one source, for AVX2 and for
// the baseline ISA, and dispatched once at load time through an ifunc.
// Every operation in them is a correctly rounded IEEE add, subtract,
// multiply, divide or sqrt, and g5_grape compiles with -ffp-contract=off
// so no clone fuses a multiply-add: both clones give the same bits.
// ThreadSanitizer instruments the ifunc resolver, which runs before its
// runtime is up and crashes at load time, so TSan builds keep one clone.
#if defined(__SANITIZE_THREAD__)  // GCC
#define G5_TSAN_BUILD
#elif defined(__has_feature)  // Clang
#if __has_feature(thread_sanitizer)
#define G5_TSAN_BUILD
#endif
#endif
#if defined(__x86_64__) && defined(__linux__) && !defined(G5_TSAN_BUILD) && \
    defined(__has_attribute)
#if __has_attribute(target_clones)
#define G5_ISA_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef G5_ISA_CLONES
#define G5_ISA_CLONES
#endif

namespace g5::grape {

using math::Fixed20;
using math::FixedAccumulator;
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
  const double width = s.range_hi - s.range_lo;
  const double m = mass_scale > 0.0 ? mass_scale : 1.0;
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
  double min_mass = std::numeric_limits<double>::infinity();
  for (double m : mass) {
    if (m > 0.0) min_mass = std::min(min_mass, m);
  }
  if (!std::isfinite(min_mass)) min_mass = 1.0;
  return {c.min_component() - half, c.max_component() + half, min_mass};
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

/// A target resident in a pipeline slot: its quantized coordinates and
/// the fixed-point force/potential accumulators on the scaling's quanta.
/// Both backends accumulate in these registers, so per-interaction
/// contributions commute exactly and multi-board partial sums merge
/// bitwise.
struct IState {
  IState(const math::FixedPointCodec& codec, const PipelineScaling& s,
         const Vec3d& pos)
      : x{codec.encode(pos[0]), codec.encode(pos[1]), codec.encode(pos[2])},
        acc{FixedAccumulator(s.force_quantum),
            FixedAccumulator(s.force_quantum),
            FixedAccumulator(s.force_quantum)},
        pot(s.potential_quantum) {}

  Fixed20 x[3];
  FixedAccumulator acc[3];
  FixedAccumulator pot;

  /// The readout: the integer registers and the saturation latch.
  [[nodiscard]] RawForce raw() const noexcept {
    RawForce r;
    for (std::size_t c = 0; c < 3; ++c) r.acc[c] = acc[c].raw();
    r.pot = pot.raw();
    r.saturated = acc[0].saturated() || acc[1].saturated() ||
                  acc[2].saturated() || pot.saturated();
    return r;
  }
};

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
}

JWord Pipeline::encode_j(const Vec3d& pos, double mass) const {
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
                        std::span<RawForce> out, NativeStage& stage) const {
  if (out.size() != targets.size()) {
    throw std::invalid_argument("raw output span arity mismatch");
  }
  if (numerics_.backend != BackendKind::Native) {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      out[i] = evaluate_lns(targets[i], j);
    }
    return;
  }
  // Stage 1, once per call: the codes as doubles (exact, see
  // checked_position_bits), padded with zero-mass lanes whose counts are
  // zero, so the pair loop's trip count is a multiple of the block.
  // The count streams and the block sums are sized, not filled: the pair
  // loop writes every padded lane, and the block-sum pass every block.
  const std::size_t padded =
      (j.size() + kBatchWidth - 1) / kBatchWidth * kBatchWidth;
  for (auto* v : {&stage.x, &stage.y, &stage.z, &stage.m}) {
    v->resize(padded);
    std::fill_n(v->data() + j.size(), padded - j.size(), 0.0);
  }
  for (auto* v : {&stage.cx, &stage.cy, &stage.cz, &stage.cp}) {
    v->resize(padded);
  }
  stage.sums.resize(4 * (padded / kBatchWidth));
  for (std::size_t k = 0; k < j.size(); ++k) {
    stage.x[k] = static_cast<double>(j[k].x[0].code());
    stage.y[k] = static_cast<double>(j[k].x[1].code());
    stage.z[k] = static_cast<double>(j[k].x[2].code());
    stage.m[k] = j[k].mass_exact;
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    out[i] = evaluate_native(targets[i], j.size(), stage);
  }
}

// g5lint: hot-begin(pipeline-batch) — the per-interaction kernels; no
// allocation, no unreserved growth (the lane buffers are the caller's
// NativeStage).
namespace {

/// Fast-path bounds of one drained block: every count within 2^59 and
/// every accumulator at least W * 2^59 below the rail, so no partial sum
/// of the block can reach the rail and the block's int64 sum is exact.
constexpr double kBlockCountBound = 0x1p59;
constexpr std::int64_t kBlockAccumulatorBound =
    math::kAccumulatorRail - static_cast<std::int64_t>(Pipeline::batch_width()) *
                                 (std::int64_t{1} << 59);

/// Adding 1.5 * 2^52 rounds a double below 2^51 in magnitude to an
/// integer exactly (round to nearest even, as std::rint); the integer is
/// then the low bits of the sum's representation.
constexpr double kRoundMagic = 0x1.8p52;
constexpr std::uint64_t kRoundMagicBits =
    std::bit_cast<std::uint64_t>(kRoundMagic);

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

/// Stage 2, the Native pair arithmetic — its one definition — over a
/// staged segment of `blocks` blocks: for every j, the four counts of one
/// target at code (xi, yi, zi), m rinv^3 d / force quantum and
/// -m rinv / potential quantum, the divisions done as multiplies by the
/// exact reciprocals of the power-of-two quanta (bitwise the same, inf
/// and NaN included). A free function over restrict pointers, with
/// selects only between constants and a trip count that is a multiple of
/// the block, so it vectorizes at -O2. The coincidence cut tests the
/// exact integer-valued code differences; a cut lane gets weight 0 and
/// r^2 + 1 (a finite rinv), a live lane weight 1 and r^2 + 0, both exact.
/// The eps == 0 divergent corner is not cut: its counts are not finite,
/// which sends its block down the slow drain, where
/// patch_divergent_corner fixes them. Returns whether every count is
/// within kBlockCountBound.
G5_ISA_CLONES
bool native_counts(std::size_t blocks, const double* __restrict x,
                   const double* __restrict y, const double* __restrict z,
                   const double* __restrict m, double xi, double yi,
                   double zi, double quantum, double eps2,
                   double inv_force_quantum, double inv_potential_quantum,
                   double* __restrict cx, double* __restrict cy,
                   double* __restrict cz, double* __restrict cp) {
  const std::size_t n = blocks * Pipeline::batch_width();
  std::int64_t margin = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double ex = x[k] - xi;
    const double ey = y[k] - yi;
    const double ez = z[k] - zi;
    const double live = ex * ex + ey * ey + ez * ez == 0.0 ? 0.0 : 1.0;
    const double dx = ex * quantum;
    const double dy = ey * quantum;
    const double dz = ez * quantum;
    const double r2 = dx * dx + dy * dy + dz * dz + eps2;
    const double rinv = 1.0 / std::sqrt(r2 + (1.0 - live));
    const double wm = live * m[k];
    const double mg = wm * (rinv * rinv * rinv);
    cx[k] = mg * dx * inv_force_quantum;
    cy[k] = mg * dy * inv_force_quantum;
    cz[k] = mg * dz * inv_force_quantum;
    cp[k] = -(wm * rinv) * inv_potential_quantum;
    margin |= count_margin(cx[k]) | count_margin(cy[k]) |
              count_margin(cz[k]) | count_margin(cp[k]);
  }
  return margin >= 0;
}

/// The eps == 0 divergent corner: a non-coincident pair whose r^2
/// underflows to zero, where native_counts' rinv is infinite (so the
/// potential count of entry k is not finite). The bit-exact datapath
/// saturates there — an infinite potential well, force along the
/// components that survived in double — so the counts become +-inf per
/// nonzero component, 0 per zero component and -inf for the potential,
/// each with the sign of m (m < 0 gives -1); native_counts leaves NaN
/// where a component or m is zero. Leaves any other entry's counts as
/// they are.
void patch_divergent_corner(const NativeStage& stage, std::size_t k,
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

bool accumulator_in_bounds(const FixedAccumulator& a) {
  return a.raw() <= kBlockAccumulatorBound &&
         a.raw() >= -kBlockAccumulatorBound;
}

/// The exact sum of rint(c[l]) over one block of counts within 2^59:
/// rint(c) = 2^32 h + rint(c - 2^32 h) with h = rint(c * 2^-32). The
/// residual is exact and below 2^32, and both roundings are magic adds.
/// Wrapping unsigned arithmetic, so that a block outside the bounds
/// (which the drain never adds) yields some value rather than overflow.
std::int64_t block_count_sum(const double* c) {
  std::uint64_t sum = 0;
  for (std::size_t l = 0; l < Pipeline::batch_width(); ++l) {
    const double hm = c[l] * 0x1p-32 + kRoundMagic;
    const double h = hm - kRoundMagic;
    const double rm = (c[l] - h * 0x1p32) + kRoundMagic;
    sum += ((std::bit_cast<std::uint64_t>(hm) - kRoundMagicBits) << 32) +
           (std::bit_cast<std::uint64_t>(rm) - kRoundMagicBits);
  }
  return static_cast<std::int64_t>(sum);
}

/// Stage 2b: block_count_sum of every block of the four count streams,
/// into sums[4 b + {0, 1, 2, 3}] (x, y, z, potential). One pass the
/// compiler vectorizes; the drain adds the sums of the blocks inside its
/// bounds and ignores the rest.
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

}  // namespace

RawForce Pipeline::evaluate_native(const Vec3d& target, std::size_t count,
                                   NativeStage& stage) const {
  IState s(codec_, scaling_, target);
  const double xi = static_cast<double>(s.x[0].code());
  const double yi = static_cast<double>(s.x[1].code());
  const double zi = static_cast<double>(s.x[2].code());
  const std::size_t blocks = stage.x.size() / kBatchWidth;
  const bool all_in_bounds = native_counts(
      blocks, stage.x.data(), stage.y.data(), stage.z.data(), stage.m.data(),
      xi, yi, zi, codec_.quantum(), eps2_, inv_force_quantum_,
      inv_potential_quantum_, stage.cx.data(), stage.cy.data(),
      stage.cz.data(), stage.cp.data());
  const double* const cx = stage.cx.data();
  const double* const cy = stage.cy.data();
  const double* const cz = stage.cz.data();
  const double* const cp = stage.cp.data();
  block_sums(blocks, cx, cy, cz, cp, stage.sums.data());
  const std::int64_t* const sums = stage.sums.data();
  // Stage 3: drain block by block. A block inside the bounds adds its
  // exact int64 sums once per accumulator; any other block adds its
  // counts one at a time, each rounded, clamped and latched on its own,
  // in stream order — so the sums equal a pair-by-pair stream and do not
  // depend on where block or board-shard boundaries fall.
  for (std::size_t base = 0; base < count; base += kBatchWidth) {
    const bool fast =
        accumulator_in_bounds(s.acc[0]) && accumulator_in_bounds(s.acc[1]) &&
        accumulator_in_bounds(s.acc[2]) && accumulator_in_bounds(s.pot) &&
        (all_in_bounds ||
         (block_in_bounds(cx + base) && block_in_bounds(cy + base) &&
          block_in_bounds(cz + base) && block_in_bounds(cp + base)));
    if (fast) [[likely]] {
      const std::int64_t* const sum = sums + 4 * (base / kBatchWidth);
      s.acc[0].add_count(sum[0]);
      s.acc[1].add_count(sum[1]);
      s.acc[2].add_count(sum[2]);
      s.pot.add_count(sum[3]);
      continue;
    }
    const std::size_t end = std::min(base + kBatchWidth, count);
    for (std::size_t k = base; k < end; ++k) {
      double c[4] = {cx[k], cy[k], cz[k], cp[k]};
      if (!std::isfinite(c[3])) [[unlikely]] {
        patch_divergent_corner(stage, k, xi, yi, zi, codec_.quantum(), eps2_,
                               c);
      }
      s.acc[0].add_rounded(c[0]);
      s.acc[1].add_rounded(c[1]);
      s.acc[2].add_rounded(c[2]);
      s.pot.add_rounded(c[3]);
    }
  }
  return s.raw();
}

RawForce Pipeline::evaluate_lns(const Vec3d& target,
                                std::span<const JWord> j) const {
  IState s(codec_, scaling_, target);
  const Fixed20 xi0 = s.x[0];
  const Fixed20 xi1 = s.x[1];
  const Fixed20 xi2 = s.x[2];
  for (const JWord& jw : j) {
    // Exact fixed-point differences and the i == j cut (the hardware's
    // coincidence detection keeps the softened self-potential -m/eps out
    // of the accumulators).
    const FixedDelta d0 = jw.x[0] - xi0;
    const FixedDelta d1 = jw.x[1] - xi1;
    const FixedDelta d2 = jw.x[2] - xi2;
    if (math::coincident(d0, d1, d2)) continue;

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
    // into the fixed-point accumulators in stream order.
    const LnsValue mg = lns_.mul(jw.mass, lns_.pow_neg_3_2(r2w));
    const LnsValue mh = lns_.mul(jw.mass, lns_.pow_neg_1_2(r2w));
    s.acc[0].add_rounded(lns_.to_double(lns_.mul(mg, dx)) * inv_force_quantum_);
    s.acc[1].add_rounded(lns_.to_double(lns_.mul(mg, dy)) * inv_force_quantum_);
    s.acc[2].add_rounded(lns_.to_double(lns_.mul(mg, dz)) * inv_force_quantum_);
    s.pot.add_rounded(-lns_.to_double(mh) * inv_potential_quantum_);
  }
  return s.raw();
}
// g5lint: hot-end

}  // namespace g5::grape
