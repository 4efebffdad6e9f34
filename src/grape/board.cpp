#include "grape/board.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace g5::grape {

namespace {

std::string capacity_message(std::size_t board, std::size_t requested,
                             std::size_t capacity) {
  std::string where = board == JmemCapacityError::kAggregate
                          ? std::string("aggregate particle memory")
                          : "board " + std::to_string(board) +
                                " particle memory";
  return "j segment exceeds " + where + " capacity (" +
         std::to_string(requested) + " > " + std::to_string(capacity) + ")";
}

/// Scale an accumulator count by the fault gain, saturating like the
/// registers do. Double round-trip precision (2^53) is far above any
/// healthy count; this is a diagnostic path (self-test) either way.
std::int64_t scale_count(std::int64_t count, double gain) {
  constexpr double kMax = 9.0e18;  // FixedAccumulator's saturation rail
  double scaled = std::nearbyint(static_cast<double>(count) * gain);
  if (scaled > kMax) scaled = kMax;
  if (scaled < -kMax) scaled = -kMax;
  return static_cast<std::int64_t>(scaled);
}

}  // namespace

JmemCapacityError::JmemCapacityError(std::size_t board, std::size_t requested,
                                     std::size_t capacity)
    : std::out_of_range(capacity_message(board, requested, capacity)),
      board_(board),
      requested_(requested),
      capacity_(capacity) {}

ProcessorBoard::ProcessorBoard(const BoardConfig& board_cfg,
                               const HostInterfaceConfig& hib_cfg,
                               const PipelineNumerics& numerics,
                               std::size_t index)
    : cfg_(board_cfg), pipe_(numerics), hib_(hib_cfg), index_(index) {}

void ProcessorBoard::configure(const PipelineScaling& scaling) {
  pipe_.configure(scaling);
  // Stored words are invalid on the new window; require a fresh upload.
  j_count_ = 0;
}

void ProcessorBoard::set_j(std::size_t address, const Vec3d* pos,
                           const double* mass, std::size_t count) {
  if (address + count > cfg_.jmem_capacity) {
    throw JmemCapacityError(index_, address + count, cfg_.jmem_capacity);
  }
  if (jmem_.size() < address + count) jmem_.resize(address + count);
  for (std::size_t k = 0; k < count; ++k) {
    jmem_[address + k] = pipe_.encode_j(pos[k], mass[k]);
  }
  if (address + count > j_count_) j_count_ = address + count;
  hib_.record_j_upload(count);
}

void ProcessorBoard::set_j_count(std::size_t count) {
  if (count > cfg_.jmem_capacity) {
    throw JmemCapacityError(index_, count, cfg_.jmem_capacity);
  }
  // Addresses never loaded hold zero words.
  if (jmem_.size() < count) jmem_.resize(count);
  j_count_ = count;
}

std::size_t ProcessorBoard::run_raw(const Vec3d* i_pos, std::size_t ni,
                                    RawForce* out) {
  if (ni == 0 || j_count_ == 0) return 0;
  hib_.record_i_upload(ni);

  const std::size_t slots = cfg_.i_slots();
  for (std::size_t i = 0; i < ni; ++i) {
    IState state = pipe_.encode_i(i_pos[i]);
    // Batched j-stream: bitwise-identical to per-j interact() calls for
    // the bit-exact backend (see Pipeline::interact_batch).
    pipe_.interact_batch(state, jmem_.data(), j_count_);
    out[i] = pipe_.read_raw(state);
    if (faulty_chip_ >= 0 &&
        chip_of_slot(i % slots) == static_cast<std::size_t>(faulty_chip_)) {
      const double gain = 1.0 + fault_gain_;
      for (std::size_t c = 0; c < 3; ++c) {
        out[i].acc[c] = scale_count(out[i].acc[c], gain);
      }
      out[i].pot = scale_count(out[i].pot, gain);
    }
  }

  hib_.record_result_read(ni);
  return ni * j_count_;
}

void ProcessorBoard::inject_chip_fault(int chip_index, double gain_error) {
  if (chip_index >= static_cast<int>(cfg_.chips)) {
    throw std::out_of_range("chip index exceeds board");
  }
  faulty_chip_ = chip_index < 0 ? -1 : chip_index;
  fault_gain_ = gain_error;
}

}  // namespace g5::grape
