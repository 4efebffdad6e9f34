// The host-side j-chunk loop over an emulated GRAPE-5: upload a j-list
// in particle-memory-sized chunks, merge every chunk's integer partial
// sums (Grape5System::compute_raw), convert once (Pipeline::convert_raw).
// This is the reference evaluation the engines' lanes are pinned against
// and the loop g5bench's traced replay runs.
#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "grape/system.hpp"

namespace g5::testutil {

/// Forces of the j-list on `i_pos` through `sys` (range already set);
/// returns true if any target's accumulators saturated.
inline bool chunked_forces(grape::Grape5System& sys,
                           std::span<const math::Vec3d> i_pos,
                           std::span<const math::Vec3d> j_pos,
                           std::span<const double> j_mass,
                           std::span<math::Vec3d> acc,
                           std::span<double> pot) {
  const std::size_t ni = i_pos.size();
  if (acc.size() != ni || pot.size() != ni || j_mass.size() != j_pos.size()) {
    throw std::invalid_argument("span arity mismatch");
  }
  std::vector<grape::RawForce> raw(ni);
  const std::size_t cap = sys.jmem_capacity();
  for (std::size_t off = 0; off < j_pos.size(); off += cap) {
    const std::size_t len = std::min(cap, j_pos.size() - off);
    sys.set_j_particles(j_pos.subspan(off, len), j_mass.subspan(off, len));
    sys.compute_raw(i_pos, raw);
  }
  bool saturated = false;
  for (std::size_t i = 0; i < ni; ++i) {
    sys.pipeline().convert_raw(raw[i], acc[i], pot[i]);
    saturated = saturated || raw[i].saturated;
  }
  return saturated;
}

}  // namespace g5::testutil
