#include <algorithm>

#include "core/engines.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/timer.hpp"

namespace g5::core {

GrapeDirectEngine::GrapeDirectEngine(
    const ForceParams& params, std::shared_ptr<grape::Grape5Device> device)
    : ForceEngine(params), kernel_(std::move(device)) {}

void GrapeDirectEngine::evaluate_blocks(const model::ParticleSet& pset,
                                        std::span<const math::Vec3d> i_pos,
                                        std::span<math::Vec3d> acc,
                                        std::span<double> pot) {
  // Fixed i-blocks of whole VMP passes: the block shapes, and so the
  // device account the fold charges, do not depend on the lane count.
  const std::size_t block =
      std::size_t{16} * kernel_.device()->system().config().board.i_slots();
  const std::size_t blocks = (i_pos.size() + block - 1) / block;
  auto& pool = ensure_pool(pool_, params_.threads);
  kernel_.begin_phase(pset, params_.eps, pool.size(), blocks);
  double kernel_cpu = 0.0;
  {
    G5_OBS_SPAN("kernel", "engine");
    std::vector<double> lane_cpu(pool.size(), 0.0);
    pool.parallel_for(
        blocks, 1, [&](std::size_t begin, std::size_t end, unsigned lane) {
          util::Stopwatch lap;
          for (std::size_t b = begin; b < end; ++b) {
            const std::size_t first = b * block;
            const std::size_t count = std::min(block, i_pos.size() - first);
            kernel_.evaluate_j(lane, b, pset.pos(), pset.mass(),
                               i_pos.subspan(first, count),
                               acc.subspan(first, count),
                               pot.subspan(first, count));
          }
          lane_cpu[lane] += lap.elapsed();
        });
    for (const double s : lane_cpu) kernel_cpu += s;
    if (obs::enabled()) obs::record_phase("kernel.cpu", kernel_cpu, blocks);
  }
  kernel_.end_phase();
  // j includes every i; the pipeline's coincident-pair cut drops the
  // self term, so no correction is needed.
  stats_.interactions += static_cast<std::uint64_t>(i_pos.size()) *
                         static_cast<std::uint64_t>(pset.size());
  stats_.seconds_kernel += kernel_cpu;
  ++stats_.evaluations;
}

void GrapeDirectEngine::compute(model::ParticleSet& pset) {
  G5_OBS_SPAN("force", "engine");
  util::Stopwatch total;
  pset.zero_force();
  if (pset.empty()) return;
  evaluate_blocks(pset, pset.pos(), pset.acc(), pset.pot());
  stats_.seconds_total += total.elapsed();
}

void GrapeDirectEngine::compute_targets(
    model::ParticleSet& pset, std::span<const std::uint32_t> targets) {
  G5_OBS_SPAN("force", "engine");
  util::Stopwatch total;
  if (pset.empty() || targets.empty()) return;

  // Gather the targets as i-particles against the whole set as j.
  i_pos_.resize(targets.size());
  acc_.resize(targets.size());
  pot_.resize(targets.size());
  for (std::size_t k = 0; k < targets.size(); ++k) {
    i_pos_[k] = pset.pos()[targets[k]];
  }
  evaluate_blocks(pset, i_pos_, acc_, pot_);
  for (std::size_t k = 0; k < targets.size(); ++k) {
    const std::uint32_t t = targets[k];
    pset.acc()[t] = acc_[k];
    pset.pot()[t] = pot_[k];
  }
  stats_.seconds_total += total.elapsed();
}

}  // namespace g5::core
