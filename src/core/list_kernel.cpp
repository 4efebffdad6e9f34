#include <stdexcept>

#include "core/engines.hpp"

namespace g5::core {

std::pair<double, double> configure_device_window(
    grape::Grape5Device& device, const model::ParticleSet& pset, double eps) {
  const model::Aabb box = pset.bounding_box();
  const grape::SnapshotWindow w =
      grape::snapshot_window(box.lo, box.hi, pset.mass());
  device.set_range(w.lo, w.hi, w.mass_scale);
  device.set_eps(eps);
  return {w.lo, w.hi};
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
