// Scalar oracle of the bit-exact G5 datapath: one interaction at a time,
// written the way the hardware stages read (grape/pipeline.hpp), with its
// own LnsFormat, coordinate codec and accumulators. The library
// evaluates through Pipeline::evaluate only; tests/grape_backend_test.cpp
// pins the two bitwise against each other.
#pragma once

#include <span>

#include "grape/pipeline.hpp"
#include "math/fixed.hpp"
#include "math/lns.hpp"

namespace g5::oracle {

class LnsOracle {
 public:
  /// Mirror a configured pipeline: its numerics, window and softening.
  explicit LnsOracle(const grape::Pipeline& pipe)
      : lns_(pipe.numerics().lns_frac_bits),
        codec_(pipe.scaling().range_lo, pipe.scaling().range_hi,
               pipe.numerics().position_bits),
        eps2_(pipe.scaling().eps * pipe.scaling().eps),
        force_quantum_(pipe.scaling().force_quantum),
        potential_quantum_(pipe.scaling().potential_quantum) {
    lns_.set_table_index_bits(pipe.numerics().table_index_bits);
  }

  /// The j-stream through one pipeline slot loaded with `target`, one
  /// pipeline cycle per j, in stream order: the raw readout.
  [[nodiscard]] grape::RawForce evaluate(std::span<const grape::JWord> js,
                                         const grape::Vec3d& target) const {
    Slot slot(*this, target);
    for (const grape::JWord& j : js) interact(slot, j);
    grape::RawForce r;
    bool saturated = slot.pot.saturated();
    for (int c = 0; c < 3; ++c) {
      r.acc[c] = slot.acc[c].raw();
      saturated = saturated || slot.acc[c].saturated();
    }
    r.pot = slot.pot.raw();
    r.saturated = saturated;
    return r;
  }

 private:
  /// One i-particle resident in a pipeline: quantized coordinates and
  /// the fixed-point force/potential accumulators.
  struct Slot {
    Slot(const LnsOracle& o, const grape::Vec3d& pos)
        : x{o.codec_.encode(pos[0]), o.codec_.encode(pos[1]),
            o.codec_.encode(pos[2])},
          acc{math::FixedAccumulator(o.force_quantum_),
              math::FixedAccumulator(o.force_quantum_),
              math::FixedAccumulator(o.force_quantum_)},
          pot(o.potential_quantum_) {}
    math::Fixed20 x[3];
    math::FixedAccumulator acc[3];
    math::FixedAccumulator pot;
  };

  /// One pipeline cycle: accumulate the interaction of one j onto one i.
  void interact(Slot& i_state, const grape::JWord& j) const {
    // 1. Coordinate differences: exact fixed-point subtraction, then the
    //    difference enters the log-format datapath via the codec (one
    //    conversion rounding per component).
    math::LnsValue dx[3];
    math::FixedDelta d[3];
    for (int c = 0; c < 3; ++c) {
      d[c] = j.x[c] - i_state.x[c];
      dx[c] = lns_.from_double(codec_.delta_to_double(d[c]));
    }
    // The i == j cut: pairs whose fixed-point coordinates coincide.
    if (math::coincident(d[0], d[1], d[2])) return;

    // 2. Squares in log format (exact shifts), summed with eps^2 by the
    //    block-normalized adder: an exact add re-quantized to log format.
    double r2 = eps2_;
    for (const auto& dc : dx) r2 += lns_.to_double(lns_.square(dc));
    const math::LnsValue r2_lns = lns_.from_double(r2);

    // 3. g = (r^2)^(-3/2) (table unit) and h = (r^2)^(-1/2).
    const math::LnsValue g = lns_.pow_neg_3_2(r2_lns);
    const math::LnsValue h = lns_.pow_neg_1_2(r2_lns);

    // 4. Products m*g and m*g*dx in log format (integer adds), then the
    //    fixed-point accumulators pick up the converted results.
    const math::LnsValue mg = lns_.mul(j.mass, g);
    for (int c = 0; c < 3; ++c) {
      i_state.acc[c].add(lns_.to_double(lns_.mul(mg, dx[c])));
    }
    i_state.pot.add(-lns_.to_double(lns_.mul(j.mass, h)));
  }

  math::LnsFormat lns_;
  math::FixedPointCodec codec_;
  double eps2_;
  double force_quantum_;
  double potential_quantum_;
};

}  // namespace g5::oracle
