// Scalar oracle of the bit-exact G5 datapath: one interaction at a time,
// written the way the hardware stages read (grape/pipeline.hpp), with its
// own LnsFormat and coordinate codec. The library evaluates through
// Pipeline::interact_batch only; tests/grape_backend_test.cpp pins the
// two bitwise against each other.
#pragma once

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
        eps2_(pipe.scaling().eps * pipe.scaling().eps) {
    lns_.set_table_index_bits(pipe.numerics().table_index_bits);
  }

  /// One pipeline cycle: accumulate the interaction of one j onto one i.
  void interact(grape::IState& i_state, const grape::JWord& j) const {
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

 private:
  math::LnsFormat lns_;
  math::FixedPointCodec codec_;
  double eps2_;
};

}  // namespace g5::oracle
