#include <cstdint>
#include <stdexcept>

#include "core/engines.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/timer.hpp"

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
  for (Lane& lane : lanes_) lane.stage.tiles = lane.stage.fallback_tiles = 0;
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
  const std::size_t ni = targets.size();
  const std::size_t nj = j_pos.size();
  if (j_mass.size() != nj) {
    throw std::invalid_argument("j position/mass arity mismatch");
  }
  if (acc.size() != ni || pot.size() != ni) {
    throw std::invalid_argument("output span arity mismatch");
  }
  // The whole list as one j-stream: the counts are exact integers, so
  // they equal the device's jmem-chunked, board-sharded merge bitwise.
  const grape::Pipeline& pipe = device_->system().pipeline();
  Lane& buf = lanes_[lane];
  buf.jwords.resize(nj);
  for (std::size_t k = 0; k < nj; ++k) {
    buf.jwords[k] = pipe.encode_j(j_pos[k], j_mass[k]);
  }
  buf.raw.resize(ni);
  util::Stopwatch watch;
  pipe.evaluate(buf.jwords, targets, buf.raw, buf.stage);
  const double seconds = watch.elapsed();
  bool saturated = false;
  for (std::size_t i = 0; i < ni; ++i) {
    pipe.convert_raw(buf.raw[i], acc[i], pot[i]);
    saturated = saturated || buf.raw[i].saturated;
  }
  calls_[unit] = Call{ni, nj, seconds, saturated};
}

void GrapeListKernel::end_phase() {
  for (const Call& call : calls_) {
    device_->charge_chunked(call.ni, call.nj, call.emulation_seconds,
                            call.saturated);
  }
  // The (target, tile) pairs the lanes' evaluate calls ran, and those
  // that took the block drain instead of the tile sums
  // (Pipeline::evaluate).
  if (!obs::enabled()) return;
  std::uint64_t tiles = 0;
  std::uint64_t fallback_tiles = 0;
  for (const Lane& lane : lanes_) {
    tiles += lane.stage.tiles;
    fallback_tiles += lane.stage.fallback_tiles;
  }
  obs::counter("g5.grape.tiles").add(tiles);
  obs::counter("g5.grape.fallback_tiles").add(fallback_tiles);
}

}  // namespace g5::core
