#include "grape/system.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace g5::grape {

namespace {

/// Board b's count in the block sharding of nj over `boards` boards.
std::size_t shard_count(std::size_t nj, std::size_t boards, std::size_t b) {
  const std::size_t share = shard_share(nj, boards);
  const std::size_t first = b * share;
  return first < nj ? std::min(share, nj - first) : 0;
}

/// Span names are literals (they must outlive the span and may not
/// contain '/'); boards beyond the table share one overflow label —
/// the per-board metrics still separate them.
constexpr std::array<const char*, 8> kBoardSpanNames = {
    "board0", "board1", "board2", "board3",
    "board4", "board5", "board6", "board7"};

const char* board_span_name(std::size_t b) {
  return b < kBoardSpanNames.size() ? kBoardSpanNames[b] : "board8plus";
}

}  // namespace

JmemCapacityError::JmemCapacityError(std::size_t requested,
                                     std::size_t capacity)
    : std::out_of_range("j set exceeds the aggregate particle memory (" +
                        std::to_string(requested) + " > " +
                        std::to_string(capacity) + ")"),
      requested_(requested),
      capacity_(capacity) {}

Grape5System::Grape5System(const SystemConfig& config)
    : cfg_(config), timing_(config), pipe_(config.numerics) {
  if (cfg_.boards == 0) throw std::invalid_argument("need >= 1 board");
  boards_.resize(cfg_.boards);
}

void Grape5System::set_range(double lo, double hi, double eps,
                             double mass_scale) {
  if (!(hi > lo)) throw std::invalid_argument("range window empty");
  if (!std::isfinite(eps) || eps < 0.0) {
    throw std::invalid_argument("softening must be finite and >= 0");
  }
  PipelineScaling scaling;
  scaling.range_lo = lo;
  scaling.range_hi = hi;
  scaling.eps = eps;
  // Accumulator quanta from the problem scales: small enough that
  // quantization is far below the pipeline's log-format error, large
  // enough that with eps > 0 no call streaming `mass_scale` can reach
  // the rail (the softening bound). See tests/grape_system_test.cpp and
  // tests/grape_pipeline_test.cpp for the headroom checks.
  derive_scaling_quanta(scaling, mass_scale);
  pipe_.configure(scaling);
  // Stored words are invalid on the new window; require a fresh upload.
  resident_j_ = 0;
  range_set_ = true;
}

std::size_t Grape5System::board_j(std::size_t board) const {
  if (board >= boards_.size()) throw std::out_of_range("board index");
  return shard_count(resident_j_, boards_.size(), board);
}

void Grape5System::set_j_particles(std::span<const Vec3d> pos,
                                   std::span<const double> mass) {
  G5_OBS_SPAN("j_upload", "grape");
  if (!range_set_) {
    throw std::logic_error("set_range must be called before set_j_particles");
  }
  if (pos.size() != mass.size()) {
    throw std::invalid_argument("position/mass arity mismatch");
  }
  const std::size_t nj = pos.size();
  if (nj > jmem_capacity()) throw JmemCapacityError(nj, jmem_capacity());
  jmem_.resize(nj);
  for (std::size_t k = 0; k < nj; ++k) {
    jmem_[k] = pipe_.encode_j(pos[k], mass[k]);
  }
  resident_j_ = nj;
  upload(nj);
}

std::size_t Grape5System::compute_raw(std::span<const Vec3d> i_pos,
                                      std::span<RawForce> raw) {
  if (!range_set_) {
    throw std::logic_error("set_range must be called before compute");
  }
  const std::size_t ni = i_pos.size();
  if (raw.size() != ni) {
    throw std::invalid_argument("output span arity mismatch");
  }
  if (ni == 0 || resident_j_ == 0) return 0;
  G5_OBS_SPAN("compute", "grape");

  // Every board holding a shard streams it through the Pipeline, and the
  // partial sums merge in board order in the integer count domain.
  // Integer addition is exact and associative, so any board partition of
  // the j-set produces identical counts (short of the rail); the
  // caller's single conversion to doubles is then bitwise-identical to a
  // one-board run.
  util::Stopwatch watch;
  if (partial_.size() < ni) partial_.resize(ni);
  const std::span<RawForce> partial(partial_.data(), ni);
  const std::size_t share = shard_share(resident_j_, boards_.size());
  for (std::size_t b = 0; b * share < resident_j_; ++b) {
    const std::size_t first = b * share;
    {
      G5_OBS_SPAN(board_span_name(b), "grape");
      pipe_.evaluate({jmem_.data() + first,
                      std::min(share, resident_j_ - first)},
                     i_pos, partial, stage_);
      apply_chip_fault(b, partial);
    }
    for (std::size_t i = 0; i < ni; ++i) {
      RawForce& dst = raw[i];
      const RawForce& src = partial[i];
      bool overflowed = false;
      for (std::size_t c = 0; c < 3; ++c) {
        dst.acc[c] = math::rail_add(dst.acc[c], src.acc[c], overflowed);
      }
      dst.pot = math::rail_add(dst.pot, src.pot, overflowed);
      dst.saturated = dst.saturated || src.saturated || overflowed;
    }
  }
  account_.emulation_wall += watch.elapsed();

  bool call_saturated = false;
  for (std::size_t i = 0; i < ni; ++i) call_saturated |= raw[i].saturated;
  call(ni, resident_j_);
  latch_saturation(call_saturated);
  return ni * resident_j_;
}

void Grape5System::charge_call(std::size_t nj, std::size_t ni) {
  upload(nj);
  call(ni, nj);
}

void Grape5System::charge_evaluation(double emulation_seconds,
                                     bool saturated) {
  account_.emulation_wall += emulation_seconds;
  latch_saturation(saturated);
}

void Grape5System::upload(std::size_t nj) {
  account_.j_uploaded += nj;
  account_.modeled_dma_j += timing_.j_upload_time(nj);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(nj) * cfg_.hib.bytes_per_j;
  bytes_ += bytes;

  if (!obs::enabled()) return;
  ensure_board_obs();
  const double cap = static_cast<double>(cfg_.board.jmem_capacity);
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    const auto resident =
        static_cast<double>(shard_count(nj, boards_.size(), b));
    boards_[b].j_resident->set(resident);
    boards_[b].jmem_fill->set(cap > 0.0 ? resident / cap : 0.0);
  }
  if (nj > 0) {
    obs::counter("g5.grape.j_uploaded").add(nj);
    obs::counter("g5.grape.bytes").add(bytes);
  }
  obs::gauge("g5.grape.occupancy").set(account_.occupancy());
}

void Grape5System::call(std::size_t ni, std::size_t nj) {
  if (ni == 0 || nj == 0) return;
  const ForceCallTiming t = timing_.force_call(ni, nj, false);
  account_.modeled_dma_i += t.dma_i;
  account_.modeled_compute += t.compute;
  account_.modeled_dma_result += t.dma_result;
  ++account_.force_calls;
  account_.interactions += static_cast<std::uint64_t>(ni) * nj;
  account_.i_processed += ni;
  // Occupancy denominator: the VMP streams full i-chunks, so a call of
  // ni i-particles occupies ceil(ni / i_slots) * i_slots slots.
  const std::size_t slots = cfg_.board.i_slots();
  account_.vmp_slots +=
      static_cast<std::uint64_t>((ni + slots - 1) / slots) * slots;
  // Every board holding a shard takes the i-particles up and sends the
  // results back over its own host interface.
  const std::size_t share = shard_share(nj, boards_.size());
  const std::uint64_t loaded = (nj + share - 1) / share;
  const std::uint64_t bytes =
      loaded * ni * (cfg_.hib.bytes_per_i + cfg_.hib.bytes_per_result);
  bytes_ += bytes;

  if (!obs::enabled()) return;
  ensure_board_obs();
  obs::counter("g5.grape.force_calls").add(1);
  obs::counter("g5.grape.interactions").add(ni * nj);
  obs::counter("g5.grape.i_processed").add(ni);
  obs::counter("g5.grape.bytes").add(bytes);
  for (std::size_t b = 0; b < loaded; ++b) {
    boards_[b].interactions->add(ni * shard_count(nj, boards_.size(), b));
  }
  obs::gauge("g5.grape.occupancy").set(account_.occupancy());
}

void Grape5System::latch_saturation(bool saturated) {
  if (!saturated) return;
  if (!saturated_) {
    util::log_warn() << "GRAPE-5 accumulator saturation detected; "
                        "range window or mass scale is mis-set";
  }
  saturated_ = true;  // latched until reset_account()
  if (obs::enabled()) obs::counter("g5.grape.saturated").add(1);
}

void Grape5System::ensure_board_obs() {
  if (boards_.front().interactions != nullptr) return;
  obs::gauge("g5.board.count").set(static_cast<double>(boards_.size()));
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    const std::string prefix = "g5.board." + std::to_string(b) + ".";
    boards_[b].j_resident = &obs::gauge(prefix + "j_resident");
    boards_[b].jmem_fill = &obs::gauge(prefix + "jmem_fill");
    boards_[b].interactions = &obs::counter(prefix + "interactions");
  }
}

void Grape5System::inject_chip_fault(std::size_t board, int chip,
                                     double gain_error) {
  Board& target = boards_.at(board);
  if (chip >= static_cast<int>(cfg_.board.chips)) {
    throw std::out_of_range("chip index exceeds board");
  }
  target.faulty_chip = chip < 0 ? -1 : chip;
  target.fault_gain = gain_error;
}

void Grape5System::apply_chip_fault(std::size_t board,
                                    std::span<RawForce> raw) const {
  const Board& faulty = boards_.at(board);
  if (faulty.faulty_chip < 0) return;
  // i-slots cycle over the pipelines VMP-deep, two pipelines to a chip;
  // the faulty chip's slots read out scaled by the fault gain, clamped
  // to the registers' rail.
  const BoardConfig& bc = cfg_.board;
  const std::size_t slots = bc.i_slots();
  const std::size_t slots_per_chip = bc.vmp_factor * bc.pipelines_per_chip;
  const auto chip = static_cast<std::size_t>(faulty.faulty_chip);
  const double gain = 1.0 + faulty.fault_gain;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if ((i % slots) / slots_per_chip != chip) continue;
    RawForce& r = raw[i];
    for (auto& count : r.acc) {
      count = math::rail_count(static_cast<double>(count) * gain, r.saturated);
    }
    r.pot = math::rail_count(static_cast<double>(r.pot) * gain, r.saturated);
  }
}

void Grape5System::reset_account() {
  account_.reset();
  saturated_ = false;
  bytes_ = 0;
}

}  // namespace g5::grape
