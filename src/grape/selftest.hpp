// Hardware self-test: the role the original GRAPE utility library's board
// test played. Deterministic particle vectors are pushed through every
// board's datapath and the returned forces are compared against the
// host's double-precision sums; a board whose deviation exceeds what the
// number formats can explain is flagged as faulty (e.g. a marginal chip —
// see Grape5System::inject_chip_fault for the test hook).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grape/system.hpp"

namespace g5::grape {

struct SelfTestConfig {
  std::size_t n_sources = 512;     ///< j-particles per vector set
  std::size_t n_targets = 192;     ///< i-particles (cover every i-slot)
  std::uint64_t seed = 1999;
  /// Acceptance threshold on the per-force relative deviation. The format
  /// error is ~0.3 % pairwise and averages down over the sources; 2 % per
  /// whole force catches any systematic defect while never tripping on
  /// healthy quantization noise.
  double tolerance = 0.02;
};

struct BoardTestResult {
  std::size_t board = 0;
  double max_relative_error = 0.0;
  double rms_relative_error = 0.0;
  bool passed = false;
};

struct SelfTestReport {
  bool passed = false;
  std::vector<BoardTestResult> boards;
  [[nodiscard]] std::string str() const;
};

/// Run the self-test on the system's configuration and chip faults. It
/// evaluates on a Pipeline of its own, so the system's range window,
/// particle memory, account and meters are left as they were.
SelfTestReport run_selftest(const Grape5System& system,
                            const SelfTestConfig& config = SelfTestConfig{});

}  // namespace g5::grape
