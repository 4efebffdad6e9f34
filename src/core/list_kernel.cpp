#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/engines.hpp"

namespace g5::core {

std::pair<double, double> configure_device_window(
    grape::Grape5Device& device, const model::ParticleSet& pset, double eps) {
  const model::Aabb box = pset.bounding_box();
  // Cubic window with margin: particles drift between range updates, and
  // the interaction lists also contain cell centers of mass, which stay
  // inside the hull — 12.5 % margin each side covers both.
  const double size = std::max(box.cube_size(), 1e-12) * 1.25;
  const math::Vec3d c = box.center();
  const double half = 0.5 * size;
  const double lo = c.min_component() - half;
  const double hi = c.max_component() + half;
  double min_mass = std::numeric_limits<double>::infinity();
  for (double m : pset.mass()) min_mass = std::min(min_mass, m);
  if (!std::isfinite(min_mass) || min_mass <= 0.0) min_mass = 1.0;
  device.set_range(lo, hi, min_mass);
  device.set_eps(eps);
  return {lo, hi};
}

void HostListKernel::begin_phase(const model::ParticleSet& /*pset*/,
                                 double eps, unsigned /*lanes*/,
                                 std::size_t /*units*/) {
  eps_ = eps;
}

void HostListKernel::evaluate(unsigned /*lane*/, std::size_t /*unit*/,
                              const tree::InteractionList& list,
                              std::span<const math::Vec3d> targets,
                              std::span<const double> self_mass,
                              std::span<math::Vec3d> acc,
                              std::span<double> pot) {
  tree::evaluate_list_host(list, targets, eps_, acc, pot, self_mass);
}

GrapeListKernel::GrapeListKernel(std::shared_ptr<grape::Grape5Device> device)
    : device_(std::move(device)) {
  if (!device_) throw std::invalid_argument("grape device is null");
}

void GrapeListKernel::begin_phase(const model::ParticleSet& pset, double eps,
                                  unsigned lanes, std::size_t units) {
  configure_device_window(*device_, pset, eps);
  lanes_.resize(lanes);
  for (auto& lane : lanes_) {
    if (!lane) {
      lane = std::make_unique<grape::Grape5Device>(device_->system().config());
    }
    lane->configure_like(*device_);
  }
  calls_.assign(units, Call{});
}

void GrapeListKernel::evaluate(unsigned lane, std::size_t unit,
                               const tree::InteractionList& list,
                               std::span<const math::Vec3d> targets,
                               std::span<const double> /*self_mass*/,
                               std::span<math::Vec3d> acc,
                               std::span<double> pot) {
  evaluate_j(lane, unit, list.pos, list.mass, targets, acc, pot);
}

void GrapeListKernel::evaluate_j(unsigned lane, std::size_t unit,
                                 std::span<const math::Vec3d> j_pos,
                                 std::span<const double> j_mass,
                                 std::span<const math::Vec3d> targets,
                                 std::span<math::Vec3d> acc,
                                 std::span<double> pot) {
  grape::Grape5Device& device = *lanes_[lane];
  const double wall = device.system().account().emulation_wall;
  const bool saturated =
      device.compute_forces_chunked(targets, j_pos, j_mass, acc, pot);
  calls_[unit] = Call{targets.size(), j_pos.size(),
                      device.system().account().emulation_wall - wall,
                      saturated};
}

void GrapeListKernel::end_phase() {
  for (const Call& call : calls_) {
    device_->charge_chunked(call.ni, call.nj, call.emulation_seconds,
                            call.saturated);
  }
}

}  // namespace g5::core
