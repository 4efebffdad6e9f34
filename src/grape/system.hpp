// The whole GRAPE-5 system: one force Pipeline under the shared scaling
// window, one particle memory, the timing model and the work account.
// This is the C++ face of the hardware; the C-style g5_* driver
// (grape/driver.hpp) is a thin veneer over it.
//
// Work distribution follows the real system: the *j*-particles (field
// sources) are block-partitioned over the B boards — board b holds the
// contiguous run of shard_share(nj, B) words starting at b * share —
// every board evaluates every i-particle against its run, and the host
// merges the partial sums in board order, in the integer accumulator
// domain, so the result is bitwise-identical for any board count
// (docs/scaling.md). The boards are numerically identical, so they are
// shard ranges over the one memory evaluated on the one Pipeline; what a
// board keeps of its own is its chip-fault hook (self-test) and its
// g5.board.<b>.* metrics. The driver layer handles chunking when a j-set
// exceeds the aggregate particle memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "grape/config.hpp"
#include "grape/pipeline.hpp"
#include "grape/timing.hpp"
#include "math/vec3.hpp"

namespace g5::obs {
class Counter;
class Gauge;
}  // namespace g5::obs

namespace g5::grape {

/// Typed error for a j-upload that exceeds the aggregate particle memory
/// (nj > B * per-board capacity, which is exactly when a board's block
/// shard ceil(nj/B) overflows its memory). Derives from std::out_of_range
/// so call sites written against the historical driver contract keep
/// working. Counts are in particles.
class JmemCapacityError : public std::out_of_range {
 public:
  JmemCapacityError(std::size_t requested, std::size_t capacity);

  [[nodiscard]] std::size_t requested() const noexcept { return requested_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t requested_;
  std::size_t capacity_;
};

class Grape5System {
 public:
  explicit Grape5System(const SystemConfig& config = SystemConfig{});

  [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const TimingModel& timing() const noexcept { return timing_; }

  /// Set the coordinate window and softening; invalidates resident j-sets.
  /// `mass_scale` feeds the accumulator quanta (derive_scaling_quanta):
  /// the largest sum of |m| one call streams. The engines pass the total
  /// |mass| (grape::snapshot_window); 0 means 1. A call that streams
  /// more stays exact but takes Pipeline::evaluate's block drain.
  void set_range(double lo, double hi, double eps, double mass_scale = 0.0);

  /// Upload a full j-set, block-partitioned across the boards. Throws
  /// JmemCapacityError if the set exceeds the aggregate particle memory.
  void set_j_particles(std::span<const Vec3d> pos, std::span<const double> mass);

  /// Evaluate the resident j-set on the given i-particles: merge this
  /// call's integer partial sums into `raw` WITHOUT clearing it. Callers
  /// accumulate every j-chunk's counts here and convert once at the end
  /// (Pipeline::convert_raw; grape/driver.cpp), which keeps the result
  /// bitwise-independent of both the chunking and the board count.
  /// Accumulates modeled time and counts; returns interactions computed.
  std::size_t compute_raw(std::span<const Vec3d> i_pos,
                          std::span<RawForce> raw);

  /// Number of j-particles currently resident (across boards).
  [[nodiscard]] std::size_t resident_j() const noexcept { return resident_j_; }
  /// Board b's block shard of the resident set.
  [[nodiscard]] std::size_t board_j(std::size_t board) const;

  /// Aggregate j-memory capacity.
  [[nodiscard]] std::size_t jmem_capacity() const noexcept {
    return cfg_.total_jmem();
  }

  /// True if any i-particle of any call since the last reset saturated an
  /// accumulator (would indicate a mis-set range window).
  [[nodiscard]] bool any_saturation() const noexcept { return saturated_; }

  [[nodiscard]] const HardwareAccount& account() const noexcept {
    return account_;
  }
  void reset_account();

  /// Bytes moved over the host interfaces since the last reset (j words
  /// up, i words up and results back, per board holding a shard).
  [[nodiscard]] std::uint64_t bytes_moved() const noexcept { return bytes_; }

  /// Charge one set_j_particles(nj) + compute_raw(ni i-particles) pair
  /// that was evaluated off the device (on Pipeline::evaluate over
  /// pipeline()): the account, byte meter and g5.grape.* / g5.board.<b>.*
  /// metrics move exactly as those two calls would move them here;
  /// nothing is evaluated or uploaded.
  void charge_call(std::size_t nj, std::size_t ni);
  /// Fold the evaluation side of calls charged with charge_call: their
  /// measured emulation seconds and whether any accumulator saturated
  /// (latches any_saturation()).
  void charge_evaluation(double emulation_seconds, bool saturated);

  [[nodiscard]] const PipelineScaling& scaling() const noexcept {
    return pipe_.scaling();
  }

  /// The system's one Pipeline, configured with the current scaling: the
  /// encoder of the particle memory, the evaluator of every board's
  /// shard, the readout conversion of every call, and the read-only
  /// Pipeline the engines' lanes evaluate their lists on.
  [[nodiscard]] const Pipeline& pipeline() const noexcept { return pipe_; }

  [[nodiscard]] std::size_t board_count() const noexcept {
    return boards_.size();
  }

  /// Fault injection for self-test validation: chip `chip` of board
  /// `board` produces forces scaled by (1 + gain_error) — the signature
  /// of a marginal multiplier. -1 clears the fault. i-particles map to
  /// chips through the virtual-pipeline slot assignment, as in the
  /// hardware. Throws std::out_of_range for a board or chip index past
  /// the configuration.
  void inject_chip_fault(std::size_t board, int chip,
                         double gain_error = 1.0 / 16.0);
  [[nodiscard]] int faulty_chip(std::size_t board) const {
    return boards_.at(board).faulty_chip;
  }
  /// Apply board `board`'s injected fault to its raw readout of targets
  /// 0..raw.size()-1 (no-op on a healthy board); clamps to the rail.
  void apply_chip_fault(std::size_t board, std::span<RawForce> raw) const;

 private:
  /// Per-board state: the chip-fault hook and the cached g5.board.<b>.*
  /// metric handles (registration is mutexed; the references are valid
  /// forever, so they are looked up once, on the first publish with
  /// instrumentation enabled).
  struct Board {
    int faulty_chip = -1;
    double fault_gain = 0.0;
    obs::Gauge* j_resident = nullptr;
    obs::Gauge* jmem_fill = nullptr;
    obs::Counter* interactions = nullptr;
  };

  SystemConfig cfg_;
  TimingModel timing_;
  Pipeline pipe_;
  /// The particle memory: resident_j_ encoded words, board b's shard at
  /// [b * share, b * share + board_j(b)).
  std::vector<JWord> jmem_;
  std::size_t resident_j_ = 0;
  std::vector<Board> boards_;
  /// One board's raw partial sums before compute_raw merges them.
  std::vector<RawForce> partial_;
  EvalStage stage_;
  bool range_set_ = false;
  bool saturated_ = false;
  HardwareAccount account_;
  std::uint64_t bytes_ = 0;

  /// The one meter pair: the account's counts and modeled times, the byte
  /// total and the g5.grape.* / g5.board.<b>.* call metrics move here and
  /// nowhere else (emulation seconds and the saturation latch and count
  /// are the evaluation side). upload() is an upload of nj j-particles;
  /// call() a force call of ni i-particles against nj resident ones
  /// (nothing for an empty call).
  void upload(std::size_t nj);
  void call(std::size_t ni, std::size_t nj);
  /// Latch any_saturation() and count the saturated call; warns once,
  /// when the latch first sets.
  void latch_saturation(bool saturated);
  /// Build the cached g5.board.<b>.* handles (instrumentation enabled).
  void ensure_board_obs();
};

}  // namespace g5::grape
