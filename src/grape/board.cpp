#include "grape/board.hpp"

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
  // The whole resident j-stream through one slot per i-particle
  // (per-interaction quantization, so the batching cannot change a bit).
  pipe_.evaluate({jmem_.data(), j_count_}, {i_pos, ni}, {out, ni});
  if (faulty_chip_ >= 0) {
    // The faulty chip's slots read out scaled by the fault gain, clamped
    // to the registers' rail.
    const std::size_t slots = cfg_.i_slots();
    const double gain = 1.0 + fault_gain_;
    for (std::size_t i = 0; i < ni; ++i) {
      if (chip_of_slot(i % slots) != static_cast<std::size_t>(faulty_chip_)) {
        continue;
      }
      RawForce& r = out[i];
      for (auto& count : r.acc) {
        count = math::rail_count(static_cast<double>(count) * gain,
                                 r.saturated);
      }
      r.pot = math::rail_count(static_cast<double>(r.pot) * gain, r.saturated);
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
