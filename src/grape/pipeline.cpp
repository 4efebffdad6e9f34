#include "grape/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace g5::grape {

using math::Fixed20;
using math::FixedAccumulator;
using math::FixedDelta;
using math::LnsValue;

void derive_scaling_quanta(PipelineScaling& s, double mass_scale) noexcept {
  const double width = s.range_hi - s.range_lo;
  const double m = mass_scale > 0.0 ? mass_scale : 1.0;
  s.force_quantum =
      m / (width * width) * std::ldexp(1.0, -kAccumulatorGuardBits);
  s.potential_quantum = m / width * std::ldexp(1.0, -kAccumulatorGuardBits);
}

Pipeline::Pipeline(const PipelineNumerics& numerics)
    : numerics_(numerics),
      lns_(numerics.lns_frac_bits),
      codec_(-1.0, 1.0, numerics.position_bits) {
  lns_.set_table_index_bits(numerics.table_index_bits);
  configure(PipelineScaling{});
}

void Pipeline::configure(const PipelineScaling& scaling) {
  if (!(scaling.range_hi > scaling.range_lo)) {
    throw std::invalid_argument("pipeline range window empty");
  }
  if (scaling.force_quantum <= 0.0 || scaling.potential_quantum <= 0.0) {
    throw std::invalid_argument("accumulator quanta must be > 0");
  }
  scaling_ = scaling;
  codec_ = math::FixedPointCodec(scaling.range_lo, scaling.range_hi,
                                 numerics_.position_bits);
  eps2_ = scaling.eps * scaling.eps;
}

JWord Pipeline::encode_j(const Vec3d& pos, double mass) const {
  JWord j;
  for (std::size_t c = 0; c < 3; ++c) j.x[c] = codec_.encode(pos[c]);
  j.mass = lns_.from_double(mass);
  j.mass_exact = mass;
  return j;
}

double Pipeline::force_accumulator_quantum() const noexcept {
  return numerics_.backend == BackendKind::Native && !numerics_.exact_arithmetic
             ? std::ldexp(scaling_.force_quantum, -kNativeAccumulatorExtraBits)
             : scaling_.force_quantum;
}

double Pipeline::potential_accumulator_quantum() const noexcept {
  return numerics_.backend == BackendKind::Native && !numerics_.exact_arithmetic
             ? std::ldexp(scaling_.potential_quantum,
                          -kNativeAccumulatorExtraBits)
             : scaling_.potential_quantum;
}

IState Pipeline::encode_i(const Vec3d& pos) const {
  IState s;
  for (std::size_t c = 0; c < 3; ++c) s.x[c] = codec_.encode(pos[c]);
  s.x_exact = pos;
  for (auto& a : s.acc) a = FixedAccumulator(force_accumulator_quantum());
  s.pot = FixedAccumulator(potential_accumulator_quantum());
  return s;
}

void Pipeline::interact(IState& i_state, const JWord& j) const {
  if (numerics_.exact_arithmetic) {
    interact_exact(i_state, j);
    return;
  }
  if (numerics_.backend == BackendKind::Native) {
    interact_batch_native(i_state, &j, 1);
    return;
  }

  // The scalar reference datapath. interact_batch_lns applies exactly
  // these operations per lane in the same accumulation order, and the
  // backend-equivalence tests pin the two bitwise against each other.
  //
  // 1. Coordinate differences: exact fixed-point subtraction (the strong
  //    FixedDelta word), then the difference enters the log-format
  //    datapath via the codec (one conversion rounding per component).
  LnsValue dx[3];
  FixedDelta d[3];
  for (int c = 0; c < 3; ++c) {
    d[c] = j.x[c] - i_state.x[c];
    dx[c] = lns_.from_double(codec_.delta_to_double(d[c]));
  }
  // Self-interaction cut: the pipeline drops pairs whose fixed-point
  // coordinates coincide (the hardware's i == j detection). The force of
  // such a pair is exactly zero anyway; cutting it also keeps the
  // softened self-potential -m/eps out of the accumulators, so the host
  // needs no (format-error-prone) correction.
  if (math::coincident(d[0], d[1], d[2])) return;

  // 2. Squares in log format (exact shifts), summed with eps^2 by the
  //    block-normalized adder, modeled as an exact add re-quantized to the
  //    log format.
  double r2 = eps2_;
  for (const auto& dc : dx) r2 += lns_.to_double(lns_.square(dc));
  const LnsValue r2_lns = lns_.from_double(r2);

  // 3. g = (r^2)^(-3/2) (table unit) and h = (r^2)^(-1/2) (potential unit).
  const LnsValue g = lns_.pow_neg_3_2(r2_lns);
  const LnsValue h = lns_.pow_neg_1_2(r2_lns);

  // 4. Products m*g and m*g*dx in log format (integer adds), then the
  //    fixed-point accumulators pick up the converted results.
  const LnsValue mg = lns_.mul(j.mass, g);
  for (int c = 0; c < 3; ++c) {
    i_state.acc[c].add(lns_.to_double(lns_.mul(mg, dx[c])));
  }
  i_state.pot.add(-lns_.to_double(lns_.mul(j.mass, h)));
}

void Pipeline::interact_batch(IState& i_state, const JWord* j,
                              std::size_t count) const {
  if (count == 0) return;
  if (numerics_.exact_arithmetic) {
    for (std::size_t k = 0; k < count; ++k) interact_exact(i_state, j[k]);
    return;
  }
  if (numerics_.backend == BackendKind::Native) {
    interact_batch_native(i_state, j, count);
    return;
  }
  interact_batch_lns(i_state, j, count);
}

// g5lint: hot-begin(pipeline-batch) — the per-interaction kernels; no
// allocation, no unreserved growth (every lane buffer is a stack array).
void Pipeline::interact_batch_lns(IState& i_state, const JWord* j,
                                  std::size_t count) const {
  constexpr std::size_t W = kBatchWidth;
  const Fixed20 xi0 = i_state.x[0];
  const Fixed20 xi1 = i_state.x[1];
  const Fixed20 xi2 = i_state.x[2];
  for (std::size_t base = 0; base < count; base += W) {
    const std::size_t n = std::min(W, count - base);

    // Stage 1: exact fixed-point differences plus the i == j cut, on
    // integer lanes.
    FixedDelta d[3][W];
    bool live[W];
    for (std::size_t l = 0; l < n; ++l) {
      const JWord& jw = j[base + l];
      d[0][l] = jw.x[0] - xi0;
      d[1][l] = jw.x[1] - xi1;
      d[2][l] = jw.x[2] - xi2;
      live[l] = !math::coincident(d[0][l], d[1][l], d[2][l]);
    }

    // Stage 2: the differences enter the log format (one conversion
    // rounding per component, as in the scalar path).
    LnsValue dx[3][W];
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t l = 0; l < n; ++l) {
        dx[c][l] = lns_.from_double(codec_.delta_to_double(d[c][l]));
      }
    }

    // Stage 3: squares (exact log shifts) + the block-normalized r^2 add,
    // re-encoded. The component order matches the scalar loop.
    LnsValue r2w[W];
    for (std::size_t l = 0; l < n; ++l) {
      double r2 = eps2_;
      r2 += lns_.to_double(lns_.square(dx[0][l]));
      r2 += lns_.to_double(lns_.square(dx[1][l]));
      r2 += lns_.to_double(lns_.square(dx[2][l]));
      r2w[l] = lns_.from_double(r2);
    }

    // Stage 4: power units + the m*g / m*g*dx / m*h products — integer
    // adds on the log words across lanes.
    LnsValue fout[3][W];
    LnsValue pout[W];
    for (std::size_t l = 0; l < n; ++l) {
      const LnsValue g = lns_.pow_neg_3_2(r2w[l]);
      const LnsValue h = lns_.pow_neg_1_2(r2w[l]);
      const LnsValue mg = lns_.mul(j[base + l].mass, g);
      fout[0][l] = lns_.mul(mg, dx[0][l]);
      fout[1][l] = lns_.mul(mg, dx[1][l]);
      fout[2][l] = lns_.mul(mg, dx[2][l]);
      pout[l] = lns_.mul(j[base + l].mass, h);
    }

    // Stage 5: decode lanes (table lookups) and drain them into the
    // fixed-point accumulators in stream order — the identical add
    // sequence as the scalar path, so the sums are bitwise-identical.
    double fx[3][W];
    double fp[W];
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t l = 0; l < n; ++l) {
        fx[c][l] = lns_.to_double(fout[c][l]);
      }
    }
    for (std::size_t l = 0; l < n; ++l) fp[l] = lns_.to_double(pout[l]);
    for (std::size_t l = 0; l < n; ++l) {
      if (!live[l]) continue;
      i_state.acc[0].add(fx[0][l]);
      i_state.acc[1].add(fx[1][l]);
      i_state.acc[2].add(fx[2][l]);
      i_state.pot.add(-fp[l]);
    }
  }
}

void Pipeline::interact_batch_native(IState& i_state, const JWord* j,
                                     std::size_t count) const {
  constexpr std::size_t W = kBatchWidth;
  const Fixed20 xi0 = i_state.x[0];
  const Fixed20 xi1 = i_state.x[1];
  const Fixed20 xi2 = i_state.x[2];
  for (std::size_t base = 0; base < count; base += W) {
    const std::size_t n = std::min(W, count - base);
    double gx[W];
    double gy[W];
    double gz[W];
    double gp[W];
    bool divergent = false;
    for (std::size_t l = 0; l < n; ++l) {
      const JWord& jw = j[base + l];
      const FixedDelta d0 = jw.x[0] - xi0;
      const FixedDelta d1 = jw.x[1] - xi1;
      const FixedDelta d2 = jw.x[2] - xi2;
      const double dx = codec_.delta_to_double(d0);
      const double dy = codec_.delta_to_double(d1);
      const double dz = codec_.delta_to_double(d2);
      const double r2 = dx * dx + dy * dy + dz * dz + eps2_;
      // Masked lanes — the i == j cut and the divergent r2 == 0 corner —
      // take a benign r2 so the rsqrt lane stays finite; their weight is
      // zero. The rare divergent corner is patched below.
      const bool cut = math::coincident(d0, d1, d2);
      const bool dead = cut || r2 == 0.0;
      divergent = divergent || (!cut && r2 == 0.0);
      const double r2_eff = dead ? 1.0 : r2;
      const double rinv = 1.0 / std::sqrt(r2_eff);
      const double mg =
          (dead ? 0.0 : 1.0) * jw.mass_exact * (rinv * rinv * rinv);
      gx[l] = mg * dx;
      gy[l] = mg * dy;
      gz[l] = mg * dz;
      gp[l] = (dead ? 0.0 : 1.0) * jw.mass_exact * rinv;
    }
    if (divergent) [[unlikely]] {
      // A non-coincident pair's r^2 underflowed to zero (only reachable
      // with eps == 0): the bit-exact datapath saturates — infinite
      // potential, force along the components that survived in double.
      const double inf = std::numeric_limits<double>::infinity();
      for (std::size_t l = 0; l < n; ++l) {
        const JWord& jw = j[base + l];
        const FixedDelta d0 = jw.x[0] - xi0;
        const FixedDelta d1 = jw.x[1] - xi1;
        const FixedDelta d2 = jw.x[2] - xi2;
        if (math::coincident(d0, d1, d2)) continue;
        const double dx = codec_.delta_to_double(d0);
        const double dy = codec_.delta_to_double(d1);
        const double dz = codec_.delta_to_double(d2);
        if (dx * dx + dy * dy + dz * dz + eps2_ != 0.0) continue;
        const double ms = jw.mass_exact < 0.0 ? -1.0 : 1.0;
        gx[l] = dx != 0.0 ? ms * std::copysign(inf, dx) : 0.0;
        gy[l] = dy != 0.0 ? ms * std::copysign(inf, dy) : 0.0;
        gz[l] = dz != 0.0 ? ms * std::copysign(inf, dz) : 0.0;
        gp[l] = ms * inf;
      }
    }
    // Drain into the fixed-point accumulators per interaction, in
    // stream order. Each lane quantizes independently onto the finer
    // Native grid (kNativeAccumulatorExtraBits), so the sum does not
    // depend on where batch — or board-shard — boundaries fall.
    for (std::size_t l = 0; l < n; ++l) {
      i_state.acc[0].add(gx[l]);
      i_state.acc[1].add(gy[l]);
      i_state.acc[2].add(gz[l]);
      i_state.pot.add(-gp[l]);
    }
  }
}
// g5lint: hot-end

void Pipeline::interact_exact(IState& i_state, const JWord& j) const {
  FixedDelta d[3];
  Vec3d dx;
  for (std::size_t c = 0; c < 3; ++c) {
    d[c] = j.x[c] - i_state.x[c];
    dx[c] = codec_.delta_to_double(d[c]);
  }
  // The same i == j cut as the lns path: fixed-point coincidence.
  if (math::coincident(d[0], d[1], d[2])) return;
  const double r2 = dx.norm2() + eps2_;
  if (r2 == 0.0) {
    // Non-coincident pair whose r^2 underflowed with eps == 0: the lns
    // datapath saturates its accumulators here; mirror that rather than
    // silently dropping a divergent pair.
    const double inf = std::numeric_limits<double>::infinity();
    const double ms = j.mass_exact < 0.0 ? -1.0 : 1.0;
    for (std::size_t c = 0; c < 3; ++c) {
      if (dx[c] != 0.0) i_state.acc[c].add(ms * std::copysign(inf, dx[c]));
    }
    i_state.pot.add(-ms * inf);
    return;
  }
  const double rinv = 1.0 / std::sqrt(r2);
  const double mg = j.mass_exact * rinv * rinv * rinv;
  for (std::size_t c = 0; c < 3; ++c) i_state.acc[c].add(mg * dx[c]);
  i_state.pot.add(-j.mass_exact * rinv);
}

Vec3d Pipeline::read_force(const IState& i_state) const {
  return {i_state.acc[0].value(), i_state.acc[1].value(),
          i_state.acc[2].value()};
}

double Pipeline::read_potential(const IState& i_state) const {
  return i_state.pot.value();
}

bool Pipeline::saturated(const IState& i_state) const {
  return i_state.acc[0].saturated() || i_state.acc[1].saturated() ||
         i_state.acc[2].saturated() || i_state.pot.saturated();
}

void Pipeline::convert_raw(const RawForce& raw, Vec3d& acc,
                           double& pot) const noexcept {
  const double fq = force_accumulator_quantum();
  acc = Vec3d{static_cast<double>(raw.acc[0]) * fq,
              static_cast<double>(raw.acc[1]) * fq,
              static_cast<double>(raw.acc[2]) * fq};
  pot = static_cast<double>(raw.pot) * potential_accumulator_quantum();
}

RawForce Pipeline::read_raw(const IState& i_state) const {
  RawForce r;
  for (std::size_t c = 0; c < 3; ++c) r.acc[c] = i_state.acc[c].raw();
  r.pot = i_state.pot.raw();
  r.saturated = saturated(i_state);
  return r;
}

}  // namespace g5::grape
