#include "grape/board_set.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace g5::grape {

namespace {

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

BoardSet::BoardSet(const SystemConfig& config) : cfg_(config) {
  if (cfg_.boards == 0) throw std::invalid_argument("need >= 1 board");
  boards_.reserve(cfg_.boards);
  for (std::size_t b = 0; b < cfg_.boards; ++b) {
    boards_.push_back(std::make_unique<ProcessorBoard>(cfg_.board, cfg_.hib,
                                                       cfg_.numerics, b));
  }
  board_j_.assign(cfg_.boards, 0);
}

void BoardSet::configure(const PipelineScaling& scaling) {
  for (auto& board : boards_) board->configure(scaling);
  std::fill(board_j_.begin(), board_j_.end(), 0);
  resident_j_ = 0;
}

void BoardSet::upload(std::span<const Vec3d> pos,
                      std::span<const double> mass) {
  if (pos.size() != mass.size()) {
    throw std::invalid_argument("position/mass arity mismatch");
  }
  const std::size_t nj = pos.size();
  if (nj > capacity()) {
    throw JmemCapacityError(JmemCapacityError::kAggregate, nj, capacity());
  }

  const std::size_t share = shard_share(nj, boards_.size());
  std::size_t offset = 0;
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    const std::size_t count = std::min(share, nj - offset);
    boards_[b]->set_j_count(0);
    if (count > 0) {
      boards_[b]->set_j(0, pos.data() + offset, mass.data() + offset, count);
    }
    board_j_[b] = count;
    offset += count;
  }
  resident_j_ = nj;
  publish_upload_metrics();
}

std::size_t BoardSet::run(std::span<const Vec3d> i_pos,
                          std::span<RawForce> raw) {
  const std::size_t ni = i_pos.size();
  if (raw.size() != ni) {
    throw std::invalid_argument("raw output span arity mismatch");
  }
  if (ni == 0 || resident_j_ == 0) return 0;
  if (partial_.size() < ni) partial_.resize(ni);
  const bool publish = obs::enabled();
  if (publish) ensure_board_obs();

  // Boards run one after another and merge in board order, in the
  // integer count domain. Integer addition is exact and associative, so
  // any board partition of the j-set produces identical counts; the
  // caller's single conversion to doubles is then bitwise-identical to a
  // one-board run.
  std::size_t interactions = 0;
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    if (boards_[b]->j_count() == 0) continue;
    std::size_t done = 0;
    {
      G5_OBS_SPAN(board_span_name(b), "grape");
      done = boards_[b]->run_raw(i_pos.data(), ni, partial_.data());
    }
    interactions += done;
    for (std::size_t i = 0; i < ni; ++i) {
      RawForce& dst = raw[i];
      const RawForce& src = partial_[i];
      bool overflowed = false;
      for (std::size_t c = 0; c < 3; ++c) {
        dst.acc[c] = math::rail_add(dst.acc[c], src.acc[c], overflowed);
      }
      dst.pot = math::rail_add(dst.pot, src.pot, overflowed);
      dst.saturated = dst.saturated || src.saturated || overflowed;
    }
    if (publish) board_obs_[b].interactions->add(done);
  }
  return interactions;
}

void BoardSet::charge_hib(std::size_t nj, std::size_t ni) {
  const bool publish = obs::enabled();
  if (publish) ensure_board_obs();
  const std::size_t share = shard_share(nj, boards_.size());
  std::size_t offset = 0;
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    const std::size_t count = std::min(share, nj - offset);
    offset += count;
    if (count == 0) continue;
    HostInterface& hib = boards_[b]->hib();
    hib.record_j_upload(count);
    if (ni == 0) continue;
    hib.record_i_upload(ni);
    hib.record_result_read(ni);
    if (publish) board_obs_[b].interactions->add(ni * count);
  }
}

std::uint64_t BoardSet::bytes_moved() const {
  std::uint64_t total = 0;
  for (const auto& board : boards_) total += board->hib().total_bytes();
  return total;
}

void BoardSet::reset_hib() {
  for (auto& board : boards_) board->hib().reset();
}

void BoardSet::ensure_board_obs() {
  if (board_obs_.size() == boards_.size()) return;
  // Registration takes a mutex and returns forever-valid references;
  // build the per-board handles once and keep the pointers.
  board_obs_.resize(boards_.size());
  obs::gauge("g5.board.count").set(static_cast<double>(boards_.size()));
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    const std::string prefix = "g5.board." + std::to_string(b) + ".";
    board_obs_[b].j_resident = &obs::gauge(prefix + "j_resident");
    board_obs_[b].jmem_fill = &obs::gauge(prefix + "jmem_fill");
    board_obs_[b].interactions = &obs::counter(prefix + "interactions");
  }
}

void BoardSet::publish_upload_metrics() {
  if (!obs::enabled()) return;
  ensure_board_obs();
  const double cap = static_cast<double>(board_capacity());
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    const auto resident = static_cast<double>(board_j_[b]);
    board_obs_[b].j_resident->set(resident);
    board_obs_[b].jmem_fill->set(cap > 0.0 ? resident / cap : 0.0);
  }
}

}  // namespace g5::grape
