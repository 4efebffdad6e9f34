#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "workload.hpp"

namespace g5bench {

using g5::math::Vec3d;

double quantile(std::span<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (at - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::vector<double> relative_force_errors(std::span<const Vec3d> pos,
                                          std::span<const double> mass,
                                          std::span<const Vec3d> acc,
                                          double eps, std::size_t samples,
                                          std::uint64_t sample_seed,
                                          unsigned threads) {
  const std::vector<std::size_t> picks =
      seeded_sample(pos.size(), samples, sample_seed);
  std::vector<double> err(picks.size());
  const double eps2 = eps * eps;
  auto work = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t i = picks[k];
      Vec3d exact{};
      for (std::size_t j = 0; j < pos.size(); ++j) {
        if (j == i) continue;
        const Vec3d d = pos[j] - pos[i];
        const double r2 = d.norm2() + eps2;
        exact += d * (mass[j] / (r2 * std::sqrt(r2)));
      }
      err[k] = std::sqrt((acc[i] - exact).norm2() / exact.norm2());
    }
  };
  threads = std::max(1u, threads);
  const std::size_t per = (picks.size() + threads - 1) / threads;
  std::vector<std::jthread> lanes;
  for (std::size_t begin = 0; begin < picks.size(); begin += per) {
    lanes.emplace_back(work, begin, std::min(begin + per, picks.size()));
  }
  lanes.clear();  // joins
  return err;
}

}  // namespace g5bench
