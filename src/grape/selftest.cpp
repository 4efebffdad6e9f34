#include "grape/selftest.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "grape/host_reference.hpp"
#include "math/rng.hpp"

namespace g5::grape {

SelfTestReport run_selftest(Grape5System& system,
                            const SelfTestConfig& config) {
  SelfTestReport report;
  report.passed = true;

  // Deterministic test vectors: sources spread over the window, targets
  // covering every virtual pipeline slot (so a single bad chip cannot
  // hide behind slot assignment).
  math::Rng rng(config.seed);
  std::vector<Vec3d> j_pos(config.n_sources);
  std::vector<double> j_mass(config.n_sources);
  for (std::size_t j = 0; j < config.n_sources; ++j) {
    j_pos[j] = rng.in_box(Vec3d{-1.0, -1.0, -1.0}, Vec3d{1.0, 1.0, 1.0});
    j_mass[j] = rng.uniform(0.5, 1.5);
  }
  std::vector<Vec3d> i_pos(config.n_targets);
  for (auto& p : i_pos) {
    p = rng.in_box(Vec3d{-1.0, -1.0, -1.0}, Vec3d{1.0, 1.0, 1.0});
  }
  const double eps = 0.05;

  std::vector<Vec3d> ref_acc(config.n_targets);
  std::vector<double> ref_pot(config.n_targets);

  std::vector<Vec3d> acc(config.n_targets);
  std::vector<double> pot(config.n_targets);
  std::vector<RawForce> raw(config.n_targets);

  for (std::size_t b = 0; b < system.board_count(); ++b) {
    ProcessorBoard& board = system.board(b);
    PipelineScaling scaling;
    scaling.range_lo = -2.0;
    scaling.range_hi = 2.0;
    scaling.eps = eps;
    scaling.force_quantum = 1e-12;
    scaling.potential_quantum = 1e-12;
    board.configure(scaling);
    board.set_j(0, j_pos.data(), j_mass.data(), config.n_sources);

    board.run_raw(i_pos.data(), config.n_targets, raw.data());
    for (std::size_t i = 0; i < config.n_targets; ++i) {
      board.pipeline().convert_raw(raw[i], acc[i], pot[i]);
    }

    host_forces_on_targets(i_pos, j_pos, j_mass, eps, ref_acc, ref_pot);

    BoardTestResult result;
    result.board = b;
    double sum2 = 0.0;
    for (std::size_t i = 0; i < config.n_targets; ++i) {
      const double rn = ref_acc[i].norm();
      if (rn <= 0.0) continue;
      const double e = (acc[i] - ref_acc[i]).norm() / rn;
      result.max_relative_error = std::max(result.max_relative_error, e);
      sum2 += e * e;
    }
    result.rms_relative_error =
        std::sqrt(sum2 / static_cast<double>(config.n_targets));
    result.passed = result.max_relative_error <= config.tolerance;
    report.passed = report.passed && result.passed;
    report.boards.push_back(result);

    // Leave the board without stale vectors.
    board.set_j_count(0);
  }
  return report;
}

std::string SelfTestReport::str() const {
  std::ostringstream out;
  out << "GRAPE-5 self-test: " << (passed ? "PASSED" : "FAILED") << '\n';
  for (const auto& b : boards) {
    out << "  board " << b.board << ": max err "
        << b.max_relative_error * 100.0 << "% rms "
        << b.rms_relative_error * 100.0 << "% -> "
        << (b.passed ? "ok" : "FAULTY") << '\n';
  }
  return out.str();
}

}  // namespace g5::grape
