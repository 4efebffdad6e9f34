// E3 — Section 2 accuracy claims:
//
//  * "G5 chip ... calculates a pair-wise force with a relative error of
//     about 0.3%."
//  * "The average error of the force in our simulation is around 0.1%,
//     which is dominated by the approximation made in the tree algorithm
//     and not by the accuracy of the hardware."
//  * "The relative accuracy was practically the same when we performed the
//     same force calculation using standard 64-bit floating point
//     arithmetic."
//
// Blocks:
//  (1) pairwise error distribution of the emulated pipeline vs double;
//  (2) whole-force error vs exact N^2 for: grape-direct (hardware error
//      alone), host-tree (tree error alone), grape-tree (both) at
//      theta = 0.75, plus a theta sweep;
//  (3) ablation: lns fraction bits and table resolution vs pairwise error.
//
//   ./bench_e3_accuracy [--n 4096] [--pairs 20000]

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/engines.hpp"
#include "grape/host_reference.hpp"
#include "ic/plummer.hpp"
#include "math/rng.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace g5;
using grape::Vec3d;

/// RMS relative pairwise force error of a pipeline configuration;
/// optionally fills a log-binned error histogram.
double pairwise_rms_error(const grape::PipelineNumerics& numerics,
                          std::size_t pairs, std::uint64_t seed,
                          util::Histogram* hist = nullptr) {
  grape::Pipeline pipe(numerics);
  grape::PipelineScaling scaling;
  scaling.range_lo = -10.0;
  scaling.range_hi = 10.0;
  scaling.eps = 0.0;
  // Close pairs reach |f| ~ m/r^2 ~ 1e7 here; keep that within the 63-bit
  // accumulator while leaving the weakest forces ~1e5 quanta of headroom.
  scaling.force_quantum = 0x1p-27;
  scaling.potential_quantum = 0x1p-33;
  pipe.configure(scaling);

  math::Rng rng(seed);
  util::RunningStat err;
  grape::EvalStage stage;
  for (std::size_t k = 0; k < pairs; ++k) {
    const Vec3d xi = 4.0 * rng.in_unit_ball();
    // Log-uniform separations over 4 decades: exercises the dynamic range
    // of the format the way a treecode interaction list does. Both ends
    // stay inside the configured range window (|x| < 8 < 10).
    const double r = std::pow(10.0, rng.uniform(-3.5, 0.5));
    const Vec3d xj = xi + r * rng.on_unit_sphere();
    const double mj = std::pow(10.0, rng.uniform(-2.0, 0.0));

    const grape::JWord j = pipe.encode_j(xj, mj);
    grape::RawForce raw;
    pipe.evaluate({&j, 1}, {&xi, 1}, {&raw, 1}, stage);
    Vec3d got;
    double pot = 0.0;
    pipe.convert_raw(raw, got, pot);

    Vec3d ref;
    double pot_ref;
    grape::pairwise(xi, xj, mj, 0.0, ref, pot_ref);
    const double rn = ref.norm();
    if (rn > 0.0) {
      const double e = (got - ref).norm() / rn;
      err.add(e);
      if (hist != nullptr) hist->add(e);
    }
  }
  return err.rms();
}

struct ForceErrors {
  double rms = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

ForceErrors force_error_vs_exact(model::ParticleSet work,
                                 const model::ParticleSet& exact_set,
                                 core::ForceEngine& engine) {
  engine.compute(work);
  util::RunningStat err;
  util::Histogram hist(1e-6, 1.0, 60, util::Histogram::Scale::Log10);
  for (std::size_t i = 0; i < work.size(); ++i) {
    const double ref = exact_set.acc()[i].norm();
    if (ref <= 0.0) continue;
    const double e = (work.acc()[i] - exact_set.acc()[i]).norm() / ref;
    err.add(e);
    hist.add(e);
  }
  return {err.rms(), hist.quantile(0.99), err.max()};
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const auto pairs = static_cast<std::size_t>(opt.get_int("pairs", 20000));
  const auto n = static_cast<std::size_t>(opt.get_int("n", 4096));

  // ---- block 1: pairwise hardware error --------------------------------
  std::printf("E3: force accuracy (Section 2)\n\n");
  std::printf("pairwise relative force error of the emulated G5 pipeline "
              "(%zu random pairs):\n", pairs);
  grape::PipelineNumerics default_numerics;
  util::Histogram err_hist(1e-5, 3e-2, 12, util::Histogram::Scale::Log10);
  const double rms_default =
      pairwise_rms_error(default_numerics, pairs, 7, &err_hist);
  std::printf("  default format (lns %d frac bits, %d-bit table index): "
              "rms = %.4f%%  (paper: ~0.3%%)\n\n",
              default_numerics.lns_frac_bits,
              default_numerics.table_index_bits, 100.0 * rms_default);
  std::printf("pairwise relative-error distribution (log bins):\n%s"
              "  median %.4f%%, 99th percentile %.4f%%\n\n",
              err_hist.ascii(44).c_str(), 100.0 * err_hist.quantile(0.5),
              100.0 * err_hist.quantile(0.99));

  // ---- block 3 (cheap, do early): format ablation ----------------------
  std::printf("format ablation (rms pairwise error vs log-format width):\n");
  util::Table fmt({"lns frac bits", "table bits", "rms error %"});
  for (int bits : {5, 6, 7, 8, 9, 10, 12}) {
    grape::PipelineNumerics num;
    num.lns_frac_bits = bits;
    num.table_index_bits = 0;  // full-resolution power unit for this sweep
    char b0[8], b1[8], b2[16];
    std::snprintf(b0, sizeof(b0), "%d", bits);
    std::snprintf(b1, sizeof(b1), "full");
    std::snprintf(b2, sizeof(b2), "%.4f",
                  100.0 * pairwise_rms_error(num, pairs / 2, 11));
    fmt.add_row({b0, b1, b2});
  }
  for (int tbits : {4, 6}) {
    grape::PipelineNumerics num;
    num.table_index_bits = tbits;
    char b0[8], b1[8], b2[16];
    std::snprintf(b0, sizeof(b0), "%d", num.lns_frac_bits);
    std::snprintf(b1, sizeof(b1), "%d", tbits);
    std::snprintf(b2, sizeof(b2), "%.4f",
                  100.0 * pairwise_rms_error(num, pairs / 2, 13));
    fmt.add_row({b0, b1, b2});
  }
  fmt.print();

  // ---- block 2: whole-force errors vs exact N^2 -------------------------
  ic::PlummerConfig pc;
  pc.n = n;
  pc.seed = 99;
  model::ParticleSet pset = ic::make_plummer(pc);
  const double eps = opt.get_double("eps", 0.01);

  model::ParticleSet exact = pset;
  grape::host_direct_self(exact.pos(), exact.mass(), eps, exact.acc(),
                          exact.pot());

  std::printf("\nwhole-force relative error vs exact N^2 double "
              "(N=%zu Plummer, eps=%g):\n", n, eps);
  util::Table t({"engine", "theta", "rms error %", "99%% error %",
                 "max error %"});
  auto add_engine_row = [&](const char* name, double theta) {
    core::ForceParams fp;
    fp.eps = eps;
    fp.theta = theta;
    fp.n_crit = 256;
    auto engine = core::make_engine(name, fp);
    const auto e = force_error_vs_exact(pset, exact, *engine);
    char c1[12], c2[16], c3[16], c4[16];
    std::snprintf(c1, sizeof(c1), "%.2f", theta);
    std::snprintf(c2, sizeof(c2), "%.4f", 100.0 * e.rms);
    std::snprintf(c3, sizeof(c3), "%.4f", 100.0 * e.p99);
    std::snprintf(c4, sizeof(c4), "%.4f", 100.0 * e.max);
    t.add_row({name, c1, c2, c3, c4});
  };

  add_engine_row("grape-direct", 0.0);       // hardware error alone
  add_engine_row("host-tree-modified", 0.75); // tree error alone (64-bit)
  add_engine_row("grape-tree", 0.75);         // the paper's system
  // Theta sweep: tree error growing past the hardware floor.
  for (double theta : {0.3, 0.5, 1.0}) {
    add_engine_row("host-tree-modified", theta);
    add_engine_row("grape-tree", theta);
  }
  t.print();

  std::printf(
      "\nreading: grape-tree at theta=0.75 should sit close to "
      "host-tree-modified at the same theta\n(tree error dominates; \"the "
      "relative accuracy was practically the same ... using standard\n"
      "64-bit floating point arithmetic\"), and well above grape-direct's "
      "hardware floor.\n");
  return 0;
}
