// BoardSet: the emulated PC-GRAPE cluster — B independent processor
// boards sharing one scaling window, with the j-particles block-sharded
// across their particle memories.
//
// This is the abstraction the GRAPE lineage actually scaled by: GRAPE-6
// sharded j-particles over processor boards (Makino et al. 2003) and the
// GRAPE-6A PC-cluster sharded them over host+board nodes (Fukushige &
// Makino 2005). The paper's machine is the B = 2 instance
// (SystemConfig::paper_system()); SystemConfig::boards scales the
// emulator beyond it (docs/scaling.md is the architecture note).
//
// Determinism contract: run() merges the boards' partial sums in the
// *integer accumulator domain* (counts of the call's force/potential
// quantum — grape::RawForce), in board order, and the caller converts to
// doubles once after the merge. Integer addition is exact and
// associative, so the result is bitwise-identical to streaming the whole
// j-set through one board, for any B and for both backends — a host-side
// double reduction (n1*q + n2*q) would not be, because the quanta are
// not powers of two. tests/grape_board_set_test.cpp pins this.
//
// Capacity contract: upload() block-shards nj particles as contiguous
// runs of shard_share(nj, B) = ceil(nj/B); a set that exceeds the
// aggregate memory — or a direct board segment that exceeds one board's —
// raises grape::JmemCapacityError (typed, derives from std::out_of_range).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "grape/board.hpp"
#include "grape/config.hpp"
#include "math/vec3.hpp"

namespace g5::obs {
class Counter;
class Gauge;
}  // namespace g5::obs

namespace g5::grape {

class BoardSet {
 public:
  explicit BoardSet(const SystemConfig& config);

  [[nodiscard]] std::size_t size() const noexcept { return boards_.size(); }
  [[nodiscard]] ProcessorBoard& board(std::size_t idx) {
    return *boards_.at(idx);
  }
  [[nodiscard]] const ProcessorBoard& board(std::size_t idx) const {
    return *boards_.at(idx);
  }

  /// Push a new scaling window to every board; drops resident shards
  /// (the stored words were quantized on the old window).
  void configure(const PipelineScaling& scaling);

  /// Block-shard a full j-set: board b takes the contiguous run
  /// [b*share, min((b+1)*share, nj)) with share = shard_share(nj, B) —
  /// the same rule the timing model charges for. Throws
  /// JmemCapacityError when nj exceeds the aggregate capacity.
  void upload(std::span<const Vec3d> pos, std::span<const double> mass);

  /// j-particles resident across the set / on one board.
  [[nodiscard]] std::size_t resident_j() const noexcept {
    return resident_j_;
  }
  [[nodiscard]] std::size_t board_j(std::size_t idx) const {
    return board_j_.at(idx);
  }

  /// Particle-memory capacity: aggregate / per board.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return boards_.size() * board_capacity();
  }
  [[nodiscard]] std::size_t board_capacity() const noexcept {
    return cfg_.board.jmem_capacity;
  }

  /// Evaluate every board holding a shard against `i_pos`, one after
  /// another, and merge the integer partial sums into `raw` (saturating
  /// adds, board order). Does NOT clear `raw` — callers accumulate
  /// across chunked j-sets in the same exact domain. Returns
  /// interactions computed.
  std::size_t run(std::span<const Vec3d> i_pos, std::span<RawForce> raw);

  /// Move the HIB meters exactly as upload() of nj particles followed by
  /// run() on ni i-particles would, without touching particle memory
  /// (Grape5System::charge_call).
  void charge_hib(std::size_t nj, std::size_t ni);

  /// Aggregate HIB byte meters / meter reset.
  [[nodiscard]] std::uint64_t bytes_moved() const;
  void reset_hib();

 private:
  SystemConfig cfg_;
  std::vector<std::unique_ptr<ProcessorBoard>> boards_;
  std::vector<std::size_t> board_j_;
  std::size_t resident_j_ = 0;

  /// One board's raw partial sums before run() merges them.
  std::vector<RawForce> partial_;

  /// Cached g5.board.<b>.* metric references (registration is mutexed;
  /// hot paths keep the forever-valid pointers). Built on the first
  /// publish with instrumentation enabled.
  struct BoardObs {
    obs::Gauge* j_resident = nullptr;
    obs::Gauge* jmem_fill = nullptr;
    obs::Counter* interactions = nullptr;
  };
  std::vector<BoardObs> board_obs_;

  void ensure_board_obs();
  void publish_upload_metrics();
};

}  // namespace g5::grape
