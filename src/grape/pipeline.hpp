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
// lns_frac_bits = 8 lands the pairwise rms relative force error at ~0.3 %,
// the figure the paper quotes for GRAPE-5; the calibration is pinned by
// tests/grape_pipeline_test.cpp and swept by bench_e3_accuracy.
#pragma once

#include <cstdint>
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
  double mass_exact = 0.0;  ///< used only when exact_arithmetic is on
};

/// An i-particle resident in a pipeline: quantized coordinates and the
/// fixed-point force/potential accumulators. Every backend accumulates
/// in the fixed-point registers (the Native backend on a finer quantum —
/// see kNativeAccumulatorExtraBits), so per-interaction contributions
/// commute exactly and multi-board partial sums merge bitwise.
struct IState {
  math::Fixed20 x[3] = {};
  Vec3d x_exact{};  ///< used only when exact_arithmetic is on
  math::FixedAccumulator acc[3] = {math::FixedAccumulator(1.0),
                                   math::FixedAccumulator(1.0),
                                   math::FixedAccumulator(1.0)};
  math::FixedAccumulator pot = math::FixedAccumulator(1.0);
};

/// Raw readout of one i-slot: the integer accumulator registers (counts
/// of the call's force/potential quantum) plus the saturation flag.
/// Integer addition is exact and associative, so partial sums produced
/// by different boards merge in this domain without the double-rounding
/// a host-side `n1*q + n2*q` reduction would introduce; the BoardSet
/// reduction (grape/board_set.hpp) converts to doubles exactly once,
/// after the merge.
struct RawForce {
  std::int64_t acc[3] = {0, 0, 0};
  std::int64_t pot = 0;
  bool saturated = false;
};

// The strong coordinate words are layout-identical to the raw int64
// codes they replaced, so the on-board particle-memory image (and the
// SoA staging the batched kernel does) is the same bytes as before.
static_assert(sizeof(JWord::x) == 3 * sizeof(std::int64_t));
static_assert(std::is_trivially_copyable_v<JWord>);

/// The per-call scaling state shared by all pipelines of the system
/// (coordinate window, softening, accumulator quanta).
struct PipelineScaling {
  double range_lo = -1.0;
  double range_hi = 1.0;
  double eps = 0.0;
  /// Accumulator quanta (set by the driver from the mass scale; see
  /// Grape5System::prepare_scaling).
  double force_quantum = 1e-18;
  double potential_quantum = 1e-18;
};

/// Headroom of the 64-bit fixed-point accumulators: the quantum sits
/// 2^-34 below the largest expected per-call sum, leaving ~2^34 codes of
/// guard range above it before saturation.
inline constexpr int kAccumulatorGuardBits = 34;

/// The Native backend quantizes each double interaction onto a finer
/// accumulator grid (2^-6 of the bit-exact quantum, i.e. 40 effective
/// guard bits). Quantizing *per interaction* makes the sum independent
/// of batch and shard boundaries — the property GRAPE-6 bought with
/// fixed-point accumulators behind its floating pipelines (Makino et
/// al. 2003) and the reason --boards is bitwise-invariant for Native
/// too. The rounding noise (~2^-40 of the force scale per interaction)
/// sits ~4 decades below the coordinate-quantization floor the probe
/// measures, and the remaining headroom (~2^23 above the expected
/// per-call maximum) keeps saturation unreachable for sane windows.
inline constexpr int kNativeAccumulatorExtraBits = 6;

/// Derive the accumulator quanta from the coordinate window and the mass
/// scale (largest |m_j| of the call). The one shared definition of the
/// hardware's accumulator scaling — the driver (system.cpp) and the
/// force-error probe (obs/probe.cpp) must agree bit-for-bit on it.
void derive_scaling_quanta(PipelineScaling& s, double mass_scale) noexcept;

class Pipeline {
 public:
  explicit Pipeline(const PipelineNumerics& numerics);

  /// (Re)build the coordinate codec for a new range window.
  void configure(const PipelineScaling& scaling);

  [[nodiscard]] const PipelineScaling& scaling() const noexcept {
    return scaling_;
  }
  [[nodiscard]] const PipelineNumerics& numerics() const noexcept {
    return numerics_;
  }

  /// Quantize a j-particle for the particle memory.
  [[nodiscard]] JWord encode_j(const Vec3d& pos, double mass) const;

  /// Load an i-particle into a pipeline slot (resets accumulators).
  [[nodiscard]] IState encode_i(const Vec3d& pos) const;

  /// One pipeline cycle: accumulate the interaction of one j onto one i.
  void interact(IState& i_state, const JWord& j) const;

  /// Stream a whole j-segment through one pipeline slot: structure-of-
  /// arrays evaluation in blocks of `batch_width()` lanes, so the fixed-
  /// point and log-word stages run over arrays the compiler can
  /// vectorize. For the BitExact backend this applies the identical
  /// per-interaction operations in the identical accumulation order as
  /// repeated interact() calls, so the result is bitwise-identical
  /// (tests/grape_backend_test.cpp pins this across batch shapes).
  void interact_batch(IState& i_state, const JWord* j,
                      std::size_t count) const;

  /// Lane count of the batched kernel's inner loops (a SIMD-register
  /// width worth of independent interactions, not a hardware parameter).
  [[nodiscard]] static constexpr std::size_t batch_width() noexcept {
    return kBatchWidth;
  }

  /// Read back the accumulated force and potential (hardware readout).
  [[nodiscard]] Vec3d read_force(const IState& i_state) const;
  [[nodiscard]] double read_potential(const IState& i_state) const;
  [[nodiscard]] bool saturated(const IState& i_state) const;

  /// Read back the raw integer accumulator registers (the multi-board
  /// reduction domain; see RawForce).
  [[nodiscard]] RawForce read_raw(const IState& i_state) const;

  /// Convert a raw readout to force and potential — the one raw->double
  /// conversion of the device (counts times the accumulator quanta).
  void convert_raw(const RawForce& raw, Vec3d& acc, double& pot) const noexcept;

  /// The accumulator quanta encode_i actually installs — the scaling's
  /// quanta for BitExact, 2^-kNativeAccumulatorExtraBits of them for
  /// Native. RawForce counts convert to doubles by these.
  [[nodiscard]] double force_accumulator_quantum() const noexcept;
  [[nodiscard]] double potential_accumulator_quantum() const noexcept;

  /// Position quantum of the current window (for diagnostics/tests).
  [[nodiscard]] double position_quantum() const {
    return codec_.quantum();
  }

 private:
  static constexpr std::size_t kBatchWidth = 8;

  PipelineNumerics numerics_;
  math::LnsFormat lns_;
  PipelineScaling scaling_;
  math::FixedPointCodec codec_;
  double eps2_ = 0.0;

  void interact_exact(IState& i_state, const JWord& j) const;
  void interact_batch_lns(IState& i_state, const JWord* j,
                          std::size_t count) const;
  void interact_batch_native(IState& i_state, const JWord* j,
                             std::size_t count) const;
};

}  // namespace g5::grape
