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
  for (double m : mass) min_mass = std::min(min_mass, m);
  if (!std::isfinite(min_mass) || min_mass <= 0.0) min_mass = 1.0;
  return {c.min_component() - half, c.max_component() + half, min_mass};
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
  return scaling_.force_quantum;
}

double Pipeline::potential_accumulator_quantum() const noexcept {
  return scaling_.potential_quantum;
}

IState Pipeline::encode_i(const Vec3d& pos) const {
  IState s;
  for (std::size_t c = 0; c < 3; ++c) s.x[c] = codec_.encode(pos[c]);
  for (auto& a : s.acc) a = FixedAccumulator(force_accumulator_quantum());
  s.pot = FixedAccumulator(potential_accumulator_quantum());
  return s;
}

void Pipeline::interact_batch(IState& i_state, const JWord* j,
                              std::size_t count) const {
  if (count == 0) return;
  if (numerics_.backend == BackendKind::Native) {
    interact_batch_native(i_state, j, count);
    return;
  }
  interact_batch_lns(i_state, j, count);
}

void Pipeline::evaluate(std::span<const JWord> j,
                        std::span<const Vec3d> targets,
                        std::span<RawForce> out) const {
  if (out.size() != targets.size()) {
    throw std::invalid_argument("raw output span arity mismatch");
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    IState state = encode_i(targets[i]);
    interact_batch(state, j.data(), j.size());
    out[i] = read_raw(state);
  }
}

// g5lint: hot-begin(pipeline-batch) — the per-interaction kernels; no
// allocation, no unreserved growth (every lane buffer is a stack array).
void Pipeline::interact_batch_lns(IState& i_state, const JWord* j,
                                  std::size_t count) const {
  const Fixed20 xi0 = i_state.x[0];
  const Fixed20 xi1 = i_state.x[1];
  const Fixed20 xi2 = i_state.x[2];
  for (std::size_t k = 0; k < count; ++k) {
    const JWord& jw = j[k];
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
    i_state.acc[0].add(lns_.to_double(lns_.mul(mg, dx)));
    i_state.acc[1].add(lns_.to_double(lns_.mul(mg, dy)));
    i_state.acc[2].add(lns_.to_double(lns_.mul(mg, dz)));
    i_state.pot.add(-lns_.to_double(mh));
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
    // stream order. Each lane quantizes independently onto the same grid
    // as BitExact, so the sum does not depend on where batch — or
    // board-shard — boundaries fall.
    for (std::size_t l = 0; l < n; ++l) {
      i_state.acc[0].add(gx[l]);
      i_state.acc[1].add(gy[l]);
      i_state.acc[2].add(gz[l]);
      i_state.pot.add(-gp[l]);
    }
  }
}
// g5lint: hot-end

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
