// Bit-level emulation of one G5 force pipeline.
//
// The G5 chip evaluates, for each resident i-particle and a stream of
// j-particles,
//
//   a_i  = sum_j m_j (x_j - x_i) / (|x_j - x_i|^2 + eps^2)^(3/2)
//   p_i  = sum_j m_j / (|x_j - x_i|^2 + eps^2)^(1/2)
//
// with the hardware number formats:
//   * coordinates: fixed point (position_bits per component) on the window
//     set by g5_set_range; the subtraction x_j - x_i is exact in fixed
//     point;
//   * the multiplicative core (squares, the (.)^(-3/2) and (.)^(-1/2)
//     units, the m_j * g * dx products): short logarithmic format with
//     lns_frac_bits fractional bits — multiplication is an integer add of
//     log words, powers are shifts, and rounding happens only at format
//     conversions;
//   * the sum dx^2+dy^2+dz^2+eps^2: block-normalized add, modeled as an
//     exact sum re-quantized into the log format (one conversion rounding);
//   * accumulation: wide fixed point (64-bit) on a per-call force quantum.
//
// The Native backend (the one double-precision datapath) replaces only
// the log-format core with double arithmetic: every pair's four counts
// (m rinv^3 d / force quantum, -m rinv / potential quantum) are computed
// in double and rounded onto the same accumulators, pair by pair. The
// quanta are powers of two, so the divisions are exact multiplies.
//
// Both backends evaluate one j-tile staged at a time
// (Pipeline::evaluate), every pair's counts in one branch-free loop the
// compiler vectorizes (BitExact's on the LNS codec's lane forms). Once
// per tile a capacity check, from the softening bound, covers every
// target; inside it the loop sums each target's rounded counts over the
// tile itself with one add per count, and the sums are added once. Any
// other tile takes an exact block drain; BitExact's lanes also send a
// tile holding a pair they cannot do bitwise there, recomputed by a
// scalar copy of the datapath first.
//
// lns_frac_bits = 8 lands the pairwise rms relative force error at ~0.3 %,
// the figure the paper quotes for GRAPE-5; the calibration is pinned by
// tests/grape_pipeline_test.cpp and swept by bench_e3_accuracy.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "grape/config.hpp"
#include "math/fixed.hpp"
#include "math/lns.hpp"
#include "math/vec3.hpp"

namespace g5::grape {

using math::Vec3d;

/// A j-particle as stored in the on-board particle memory: quantized
/// coordinates (strong fixed-point words — assigning a host double here
/// does not compile) plus the mass in log format.
struct JWord {
  math::Fixed20 x[3] = {};
  math::LnsValue mass{};
  double mass_exact = 0.0;  ///< the double mass the Native backend uses
};

/// Raw readout of one target: its fixed-point force/potential accumulator
/// registers (integer counts of the call's force/potential quantum) plus
/// the saturation flag. Both backends accumulate on the same per-call
/// quanta, so per-interaction contributions commute exactly. Integer
/// addition is exact and associative, so partial sums produced by
/// different boards merge in this domain without the double-rounding a
/// host-side `n1*q + n2*q` reduction would introduce; the board merge
/// in Grape5System::compute_raw (grape/system.hpp) keeps this domain and
/// the caller converts to doubles exactly once, after the merge.
struct RawForce {
  std::int64_t acc[3] = {0, 0, 0};
  std::int64_t pot = 0;
  bool saturated = false;
};

// The strong coordinate words are layout-identical to the raw int64
// codes they replaced, so the on-board particle-memory image is the same
// bytes as before.
static_assert(sizeof(JWord::x) == 3 * sizeof(std::int64_t));
static_assert(std::is_trivially_copyable_v<JWord>);

/// A lane's staging buffers for Pipeline::evaluate: one j-tile of at
/// most Pipeline::tile_length() words, padded with zero-mass lanes to a
/// multiple of Pipeline::batch_width(), and the block drain's buffers —
/// one target's four count streams over the tile and their exactly
/// rounded int64 sums per block. Both backends stage the coordinate
/// codes as doubles; Native adds the masses, BitExact the mass words in
/// lane form (math::LnsLane). Only a (target, tile) outside the capacity
/// check, or a flagged BitExact one, drains through the count streams. Every buffer
/// stays one tile long whatever the stream length. The caller owns it,
/// so one const Pipeline serves every lane.
struct EvalStage {
  std::vector<double> x, y, z;              ///< staged coordinate codes
  std::vector<double> m;                    ///< Native: masses
  std::vector<std::int64_t> mlog;           ///< BitExact: mass log words,
  std::vector<std::uint64_t> msign, mlive;  ///< sign bits, zero-tag masks
  std::vector<double> cx, cy, cz, cp;       ///< one target's counts per j
  std::vector<std::int64_t> sums;           ///< per block: x, y, z, pot sums
  /// (target, tile) pairs evaluate has run on this stage, and those of
  /// them that took the block drain; evaluate adds to them, the caller
  /// reads and resets them.
  std::uint64_t tiles = 0;
  std::uint64_t fallback_tiles = 0;
};

/// The per-call scaling state shared by all pipelines of the system
/// (coordinate window, softening, accumulator quanta).
struct PipelineScaling {
  double range_lo = -1.0;
  double range_hi = 1.0;
  double eps = 0.0;
  /// Accumulator quanta (set from the softening or the window, and the
  /// mass scale, by derive_scaling_quanta, which Grape5System::set_range
  /// calls). Powers of two (Pipeline::configure checks it), so that
  /// dividing by them is an exact multiply.
  double force_quantum = 0x1p-60;
  double potential_quantum = 0x1p-60;
};

/// The softening bound per unit mass: with eps > 0 no pair of mass m
/// gives a force component above m * 2 / (3 sqrt(3) eps^2) (at
/// r = eps / sqrt(2) along that axis) or a potential above m / eps.
inline constexpr double kForceBoundPerMass = 0.38490017945975050;

/// Headroom of the quanta derived from the softening bound: a call that
/// streams the mass scale reaches at most 2^49 counts in any register.
inline constexpr int kBoundHeadroomBits = 49;

/// Headroom of the quanta derived from the window (eps == 0, which has no
/// bound): the quantum sits 2^-34 below the largest expected per-call
/// sum, leaving ~2^34 codes of guard range above it before saturation.
inline constexpr int kAccumulatorGuardBits = 34;

/// Derive the accumulator quanta from the softening, the coordinate
/// window and the mass scale m (the largest sum of |m_j| one call streams,
/// see snapshot_window): for eps > 0 the softening bound of mass m over
/// 2^kBoundHeadroomBits, m * kForceBoundPerMass / eps^2 and m / eps;
/// for eps == 0 (or a bound whose quanta are not normal doubles)
/// m / width^2 and m / width, times 2^-kAccumulatorGuardBits. Each is
/// rounded up to the next power of two — so the headroom never shrinks,
/// and the resolution gives up at most one bit. The one shared definition
/// of the hardware's accumulator scaling, used by Grape5System::set_range
/// and SnapshotWindow::scaling.
void derive_scaling_quanta(PipelineScaling& s, double mass_scale) noexcept;

/// The range window and mass scale the force engines give the device for
/// a particle snapshot, and the pipeline scaling that setting installs.
struct SnapshotWindow {
  double lo = -1.0;
  double hi = 1.0;
  double mass_scale = 1.0;

  /// What Grape5System::set_range(lo, hi, eps, mass_scale) installs.
  [[nodiscard]] PipelineScaling scaling(double eps) const noexcept;
};

/// The one window policy of the engines' device path and the force-error
/// probe: a cube 1.25x the bounding cube around its center (particles
/// drift between range updates; lists also hold cell centers of mass),
/// and the total |mass| as the mass scale (1 if it is zero or not
/// finite). Every interaction list partitions the total mass, so no call
/// streams more, and every call fits the capacity check of
/// Pipeline::evaluate.
[[nodiscard]] SnapshotWindow snapshot_window(
    const Vec3d& box_lo, const Vec3d& box_hi,
    std::span<const double> mass) noexcept;

class Pipeline {
 public:
  explicit Pipeline(const PipelineNumerics& numerics);

  /// (Re)build the coordinate codec for a new range window. Throws
  /// std::invalid_argument unless the window is nonempty and both
  /// accumulator quanta are finite, normal, exact powers of two.
  void configure(const PipelineScaling& scaling);

  [[nodiscard]] const PipelineScaling& scaling() const noexcept {
    return scaling_;
  }
  [[nodiscard]] const PipelineNumerics& numerics() const noexcept {
    return numerics_;
  }

  /// Quantize a j-particle for the particle memory. Throws
  /// std::invalid_argument for a non-finite coordinate.
  [[nodiscard]] JWord encode_j(const Vec3d& pos, double mass) const;

  /// Stream the j-words through one pipeline slot per target, overwriting
  /// out[i] with the integer counts (see RawForce). The device's only
  /// entry point into the datapath: Grape5System's board shards, the
  /// engines' list lanes, the self-test and the force-error probe all
  /// call it. Const and free of shared state, so lanes may evaluate on one
  /// Pipeline concurrently, each with its own `stage`. Throws
  /// std::invalid_argument if out and targets differ in length or a
  /// target coordinate is not finite.
  ///
  /// Every interaction is quantized onto the accumulators on its own, in
  /// stream order, so the counts do not depend on where segment (board
  /// shard, j-chunk) boundaries fall. Both backends work over j-tiles of
  /// tile_length() words, staged once into `stage`, and compute every
  /// pair's four counts per target in one branch-free loop the compiler
  /// vectorizes — BitExact's in the datapath's stage order on the table
  /// codec's lane forms. Once per tile, a capacity check covers every
  /// target: while the call's running sum of |m_j| times count_cap(),
  /// plus its pairs, is within count_capacity(), no register can reach
  /// 2^50, and the loop sums the target's exactly rounded counts over the
  /// tile with one add each; the sums are added once. Every other
  /// (target, tile) — eps == 0 (no cap), a call streaming more mass than
  /// the quanta were derived for, and for BitExact a tile with a pair the
  /// lane forms cannot do bitwise (a subnormal difference or r^2, a
  /// decode outside the table split) — runs the block drain: the counts
  /// into the stage's streams — BitExact's recomputed one pair at a time
  /// when a pair was flagged — then in blocks of batch_width(): a block
  /// whose counts are all within 2^59 and whose registers sit at least
  /// batch_width() * 2^59 below the rail adds its exactly rounded int64
  /// sums once, any other block adds its counts one at a time. The
  /// stage's `tiles` and `fallback_tiles` count the two paths. The
  /// counts and the saturation latch equal a pair-by-pair stream
  /// bitwise: BitExact against an independent scalar oracle, Native
  /// against a scalar reference (tests/grape_backend_test.cpp).
  void evaluate(std::span<const JWord> j, std::span<const Vec3d> targets,
                std::span<RawForce> out, EvalStage& stage) const;

  /// Block length of the drain and the padding of a staged tile (a
  /// SIMD-register width worth of independent interactions, not a
  /// hardware parameter).
  [[nodiscard]] static constexpr std::size_t batch_width() noexcept {
    return kBatchWidth;
  }

  /// Length of the j-tile evaluate stages at a time: a multiple of
  /// batch_width() whose staged tile and counts stay in the L1/L2 cache,
  /// and which bounds a stage's buffers whatever the stream length.
  [[nodiscard]] static constexpr std::size_t tile_length() noexcept {
    return kTileLength;
  }

  /// The count caps per unit mass of the force and potential registers:
  /// the softening bound in counts of the quanta, with the slack of the
  /// datapath's rounding (FP, and for BitExact the log format's). A pair
  /// of mass m moves a register by at most m * cap rounded counts.
  /// Infinite when eps^2 is not a normal double (no bound).
  [[nodiscard]] double force_count_cap() const noexcept {
    return force_count_cap_;
  }
  [[nodiscard]] double potential_count_cap() const noexcept {
    return potential_count_cap_;
  }
  /// The larger of the two: the cap evaluate's capacity check uses.
  [[nodiscard]] double count_cap() const noexcept { return count_cap_; }
  /// The bound evaluate's capacity check holds a call's running
  /// sum of |m_j| * count_cap() + pairs to.
  [[nodiscard]] static constexpr double count_capacity() noexcept {
    return 0x1p50;
  }

  /// Convert a raw readout to force and potential — the one raw->double
  /// conversion of the device (counts times the accumulator quanta,
  /// which are powers of two: an exact scaling, std::ldexp of the count).
  void convert_raw(const RawForce& raw, Vec3d& acc, double& pot) const noexcept;

  /// The accumulator quanta evaluate counts in (the scaling's quanta,
  /// for both backends). RawForce counts convert to doubles by these.
  [[nodiscard]] double force_accumulator_quantum() const noexcept;
  [[nodiscard]] double potential_accumulator_quantum() const noexcept;

  /// Position quantum of the current window (for diagnostics/tests).
  [[nodiscard]] double position_quantum() const {
    return codec_.quantum();
  }

 private:
  static constexpr std::size_t kBatchWidth = 8;
  static constexpr std::size_t kTileLength = 512;

  PipelineNumerics numerics_;
  math::LnsFormat lns_;
  PipelineScaling scaling_;
  math::FixedPointCodec codec_;
  double eps2_ = 0.0;
  // Exact reciprocals of the power-of-two quanta: multiplying by them is
  // bitwise the division by the quanta.
  double inv_force_quantum_ = 0.0;
  double inv_potential_quantum_ = 0.0;
  double force_count_cap_ = 0.0;
  double potential_count_cap_ = 0.0;
  double count_cap_ = 0.0;

  /// Stage a tile (stage 1 of evaluate); returns the sum of |m_j| over
  /// the masses the datapath reads.
  double stage_tile(std::span<const JWord> tile, std::size_t padded,
                    EvalStage& stage) const;
  /// One target against one staged tile (stages 2 and 3 of evaluate).
  void evaluate_tile(const math::Fixed20 (&xi)[3], std::span<const JWord> tile,
                     std::size_t blocks, bool within_capacity,
                     EvalStage& stage, RawForce& r) const;
  /// The bit-exact pair arithmetic, one pair at a time in the datapath's
  /// stage order: the four counts of `j` against a target at codes `xi`
  /// (zeros for a coincident pair). The one scalar copy — the exact
  /// fallback of the lane loop.
  [[nodiscard]] std::array<double, 4> lns_pair_counts(
      const math::Fixed20 (&xi)[3], const JWord& j) const;
  void drain_tile(const math::Fixed20 (&xi)[3], std::size_t count,
                  bool all_in_bounds, EvalStage& stage, RawForce& r) const;
};

}  // namespace g5::grape
