// The whole GRAPE-5 system: a BoardSet of processor boards behind their
// host interfaces, a shared scaling state, the timing model and the work
// account. This is the C++ face of the hardware; the C-style g5_* driver
// (grape/driver.hpp) is a thin veneer over it.
//
// Work distribution follows the real system: the *j*-particles (field
// sources) are block-partitioned over the boards (grape/board_set.hpp),
// every board evaluates every i-particle against its share, and the host
// merges the partial sums — in the integer accumulator domain, so the
// result is bitwise-identical for any board count (docs/scaling.md).
// set_j_particles handles the partitioning; the driver layer handles
// chunking when a j-set exceeds the aggregate particle memory.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "grape/board.hpp"
#include "grape/board_set.hpp"
#include "grape/config.hpp"
#include "grape/timing.hpp"
#include "math/vec3.hpp"

namespace g5::grape {

class Grape5System {
 public:
  explicit Grape5System(const SystemConfig& config = SystemConfig{});

  [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const TimingModel& timing() const noexcept { return timing_; }

  /// Set the coordinate window and softening; invalidates resident j-sets.
  /// `mass_scale` feeds the accumulator quanta (pass the total mass of the
  /// j-population, or 0 to defer to set_j_particles' automatic choice).
  void set_range(double lo, double hi, double eps, double mass_scale = 0.0);

  /// Upload a full j-set, block-partitioned across the boards. Throws
  /// JmemCapacityError if the set exceeds the aggregate particle memory.
  void set_j_particles(std::span<const Vec3d> pos, std::span<const double> mass);

  /// Evaluate the forces of the resident j-set on the given i-particles.
  /// Accumulates modeled time and interaction counts. `out_acc`/`out_pot`
  /// are overwritten (not accumulated). Returns interactions computed.
  std::size_t compute(std::span<const Vec3d> i_pos, std::span<Vec3d> out_acc,
                      std::span<double> out_pot);

  /// compute() in the raw accumulator domain: merge this call's integer
  /// partial sums into `raw` WITHOUT clearing it. Callers that stream a
  /// large j-set in chunks accumulate every chunk's counts here and
  /// convert to doubles once at the end, which keeps the result
  /// bitwise-independent of both the chunking and the board count
  /// (grape/driver.cpp does exactly this). Carries the same accounting
  /// and observability as compute(). Returns interactions computed.
  std::size_t compute_raw(std::span<const Vec3d> i_pos,
                          std::span<RawForce> raw);

  /// Number of j-particles currently resident (across boards).
  [[nodiscard]] std::size_t resident_j() const noexcept {
    return set_.resident_j();
  }

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

  /// Communication meters (aggregated over boards).
  [[nodiscard]] std::uint64_t bytes_moved() const;

  /// Charge one set_j_particles(nj) + compute_raw(ni i-particles) pair
  /// that ran on another system of the same configuration: the account
  /// and HIB meters move exactly as those two calls would move them here
  /// (through the same accounting code); nothing is evaluated and no
  /// obs counter is published — the evaluating system already did.
  void charge_call(std::size_t nj, std::size_t ni);
  /// Fold the evaluation side of calls charged with charge_call: their
  /// measured emulation seconds and whether any accumulator saturated
  /// (latches any_saturation()).
  void charge_evaluation(double emulation_seconds, bool saturated);

  [[nodiscard]] const PipelineScaling& scaling() const noexcept {
    return scaling_;
  }

  /// Direct pipeline access for tests (board 0's pipeline).
  [[nodiscard]] const Pipeline& pipeline() const {
    return set_.board(0).pipeline();
  }

  /// The board cluster (self-test, fault injection, diagnostics).
  [[nodiscard]] BoardSet& board_set() noexcept { return set_; }
  [[nodiscard]] const BoardSet& board_set() const noexcept { return set_; }
  [[nodiscard]] std::size_t board_count() const noexcept {
    return set_.size();
  }
  [[nodiscard]] ProcessorBoard& board(std::size_t idx) {
    return set_.board(idx);
  }
  [[nodiscard]] const ProcessorBoard& board(std::size_t idx) const {
    return set_.board(idx);
  }

 private:
  SystemConfig cfg_;
  TimingModel timing_;
  BoardSet set_;
  PipelineScaling scaling_;
  bool range_set_ = false;
  bool saturated_ = false;
  HardwareAccount account_;
  /// bytes_moved() value already published to the obs byte counter;
  /// lets set_j_particles/compute emit per-call deltas cheaply.
  std::uint64_t counted_bytes_ = 0;

  /// compute()'s merged integer partial sums before the one conversion.
  std::vector<RawForce> raw_merge_;

  /// Publish the HIB byte-meter delta and occupancy to g5::obs (no-op
  /// when instrumentation is off).
  void publish_obs_metrics();
  /// The account charges of one upload of nj / one call of ni
  /// i-particles against nj resident j-particles.
  void account_upload(std::size_t nj);
  void account_compute(std::size_t ni, std::size_t nj);
};

}  // namespace g5::grape
