// One GRAPE-5 processor board: 8 G5 chips (16 pipelines) plus the particle
// data memory holding the j-particles it is responsible for.
//
// The emulator collapses the 16 physical pipelines into a loop — they are
// numerically identical — but preserves the architectural quantities the
// timing model charges for: the j-memory capacity, the VMP i-slot count,
// and the number of streaming passes.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "grape/config.hpp"
#include "grape/hib.hpp"
#include "grape/pipeline.hpp"

namespace g5::grape {

/// Typed error for a j-upload that exceeds a board's particle memory (or
/// the BoardSet's aggregate capacity). Derives from std::out_of_range so
/// call sites written against the historical driver contract keep
/// working; new code catches the typed form and reads which board
/// rejected how much against what capacity. Counts are in particles.
class JmemCapacityError : public std::out_of_range {
 public:
  /// board() value when the aggregate (whole-set) check failed rather
  /// than a single board's.
  static constexpr std::size_t kAggregate = static_cast<std::size_t>(-1);

  JmemCapacityError(std::size_t board, std::size_t requested,
                    std::size_t capacity);

  [[nodiscard]] std::size_t board() const noexcept { return board_; }
  [[nodiscard]] std::size_t requested() const noexcept { return requested_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t board_;
  std::size_t requested_;
  std::size_t capacity_;
};

class ProcessorBoard {
 public:
  /// `index` is the board's position in its BoardSet, used only to label
  /// capacity errors and diagnostics (standalone boards default to 0).
  ProcessorBoard(const BoardConfig& board_cfg,
                 const HostInterfaceConfig& hib_cfg,
                 const PipelineNumerics& numerics, std::size_t index = 0);

  /// Reconfigure scaling (range window / eps / accumulator quanta); the
  /// resident j-set must be re-uploaded afterwards (the stored words were
  /// quantized on the old window).
  void configure(const PipelineScaling& scaling);

  /// Load j-particles into the particle memory starting at `address`.
  /// Throws if the segment exceeds the memory capacity. The emulated
  /// memory grows to the highest address loaded, so a board costs host
  /// RAM only for the particles it has held.
  void set_j(std::size_t address, const Vec3d* pos, const double* mass,
             std::size_t count);

  /// Number of valid j-particles (highest loaded address + 1).
  [[nodiscard]] std::size_t j_count() const noexcept { return j_count_; }

  /// Truncate the valid j range (e.g. when a new, shorter set is loaded).
  void set_j_count(std::size_t count);

  /// Evaluate this board's resident j-set on `ni` i-particles: overwrite
  /// out[i] with the integer partial sums (counts of the accumulator
  /// quanta — see grape::RawForce; Pipeline::convert_raw reads them out
  /// as doubles). BoardSet merges the per-board counts exactly, so the
  /// reduction is bitwise-identical to streaming the whole j-set through
  /// one board. Returns interactions computed.
  std::size_t run_raw(const Vec3d* i_pos, std::size_t ni, RawForce* out);

  [[nodiscard]] const BoardConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const Pipeline& pipeline() const noexcept { return pipe_; }
  [[nodiscard]] HostInterface& hib() noexcept { return hib_; }
  [[nodiscard]] const HostInterface& hib() const noexcept { return hib_; }

  /// Fault injection for self-test validation: chip `chip_index` produces
  /// forces scaled by (1 + gain_error) — the signature of a marginal
  /// multiplier. -1 clears the fault. i-particles map to chips through
  /// the virtual-pipeline slot assignment, as in the hardware.
  void inject_chip_fault(int chip_index, double gain_error = 1.0 / 16.0);
  [[nodiscard]] int faulty_chip() const noexcept { return faulty_chip_; }

  /// Position of this board in its BoardSet (0 for standalone boards).
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

 private:
  BoardConfig cfg_;
  Pipeline pipe_;
  HostInterface hib_;
  std::vector<JWord> jmem_;
  std::size_t j_count_ = 0;
  std::size_t index_ = 0;
  int faulty_chip_ = -1;
  double fault_gain_ = 0.0;

  /// Chip handling i-slot `slot` (slots cycle over pipelines, VMP-deep).
  [[nodiscard]] std::size_t chip_of_slot(std::size_t slot) const {
    const std::size_t pipeline = (slot / cfg_.vmp_factor) %
                                 cfg_.pipelines();
    return pipeline / cfg_.pipelines_per_chip;
  }
};

}  // namespace g5::grape
