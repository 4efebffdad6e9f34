// Cycle-accounting timing model for the GRAPE-5 system.
//
// The emulator runs ~10^4x slower than the silicon, so wall-clock numbers
// for the hardware are *modeled* from the architecture: pipeline/memory
// clocks, VMP chunking, j-memory partitioning across boards and DMA over
// the two host-interface boards. Every bench that quotes a GRAPE-5 time
// labels it "modeled". The model is validated against the paper's
// theoretical peak (109.44 Gflops) and its sustained fraction in
// tests/grape_timing_test.cpp and bench_e5_peak.
#pragma once

#include <cstddef>
#include <cstdint>

#include "grape/config.hpp"

namespace g5::grape {

/// Time breakdown of one force call (seconds, modeled).
struct ForceCallTiming {
  double dma_j = 0.0;       ///< upload of j-particles to the boards
  double dma_i = 0.0;       ///< upload of i-particles
  double compute = 0.0;     ///< pipeline streaming time
  double dma_result = 0.0;  ///< force/potential readback
  [[nodiscard]] double total() const {
    return dma_j + dma_i + compute + dma_result;
  }
};

class TimingModel {
 public:
  explicit TimingModel(const SystemConfig& config) : cfg_(config) {}

  /// Largest number of j-particles resident on one board when nj are
  /// block-distributed over the boards.
  [[nodiscard]] std::size_t j_per_board(std::size_t nj) const;

  /// Modeled time for streaming nj_board j-particles against ni
  /// i-particles on one board (VMP chunking over the i side).
  [[nodiscard]] double board_compute_time(std::size_t ni,
                                          std::size_t nj_board) const;

  /// Modeled DMA time for a transfer of `bytes` over one host interface.
  [[nodiscard]] double transfer_time(std::size_t bytes) const;

  /// Full force call: j already resident (j upload accounted separately by
  /// the driver when the j-set actually changes).
  [[nodiscard]] ForceCallTiming force_call(std::size_t ni, std::size_t nj,
                                           bool includes_j_upload) const;

  /// Time to upload nj j-particles (split across boards, parallel HIBs).
  [[nodiscard]] double j_upload_time(std::size_t nj) const;

  /// Peak interaction rate implied by the model (interactions/s); equals
  /// SystemConfig::peak_interaction_rate() when VMP chunks are full.
  [[nodiscard]] double peak_interaction_rate() const;

  /// Effective interaction rate for a (ni, nj) call shape (interactions/s,
  /// compute only) — shows the VMP partial-fill penalty.
  [[nodiscard]] double effective_rate(std::size_t ni, std::size_t nj) const;

  [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }

 private:
  SystemConfig cfg_;
};

/// Running account of modeled hardware time and work, kept by the system
/// front-end; benches read it to print paper-style rows.
struct HardwareAccount {
  std::uint64_t force_calls = 0;
  std::uint64_t interactions = 0;       ///< ni * nj summed over calls
  std::uint64_t i_processed = 0;
  std::uint64_t j_uploaded = 0;
  /// i-slots streamed: ceil(ni / board i_slots) * i_slots summed over
  /// calls. i_processed / vmp_slots is the pipeline occupancy — the
  /// VMP partial-fill fraction the n_g tradeoff (Section 3) fights.
  std::uint64_t vmp_slots = 0;
  double modeled_dma_j = 0.0;
  double modeled_dma_i = 0.0;
  double modeled_compute = 0.0;
  double modeled_dma_result = 0.0;
  /// Measured seconds spent emulating (summed over the devices whose
  /// calls were charged here, so CPU seconds when lanes ran in parallel).
  double emulation_wall = 0.0;

  [[nodiscard]] double modeled_total() const {
    return modeled_dma_j + modeled_dma_i + modeled_compute +
           modeled_dma_result;
  }
  [[nodiscard]] double flops() const {
    return static_cast<double>(interactions) * kFlopsPerInteraction;
  }
  /// Mean i-slot fill fraction over all calls (1.0 = every VMP slot
  /// streamed a real i-particle; 0 before any call).
  [[nodiscard]] double occupancy() const {
    return vmp_slots > 0 ? static_cast<double>(i_processed) /
                               static_cast<double>(vmp_slots)
                         : 0.0;
  }
  void reset() { *this = HardwareAccount{}; }
};

}  // namespace g5::grape
