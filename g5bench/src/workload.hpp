// The benchmark's four fixed workloads and the engine settings they share.
//
// Every workload is a Plummer sphere run with the paper's parameters
// (eps = 0.02, theta = 0.75, n_crit = 256, the paper's 2 boards) and one
// worker thread per core. Only make_engine names and the ForceParams
// fields eps, theta, n_crit, threads and backend are set; everything
// else keeps the library default. README.md says why each was chosen.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "grape/config.hpp"

namespace g5bench {

struct Workload {
  std::string_view name;
  std::string_view engine;        ///< make_engine name
  g5::grape::BackendKind backend;  ///< grape-tree only
  std::size_t n;
  bool grape;    ///< lists are evaluated on the emulated GRAPE-5
  bool grouped;  ///< Barnes' grouped walk (else one list per particle)
};

inline constexpr Workload kWorkloads[] = {
    {"bitexact-16k", "grape-tree", g5::grape::BackendKind::BitExact, 16384,
     true, true},
    {"native-65k", "grape-tree", g5::grape::BackendKind::Native, 65536, true,
     true},
    {"host-modified-65k", "host-tree-modified",
     g5::grape::BackendKind::BitExact, 65536, false, true},
    {"host-original-65k", "host-tree-original",
     g5::grape::BackendKind::BitExact, 65536, false, false},
};

inline constexpr double kEps = 0.02;
inline constexpr double kTheta = 0.75;
inline constexpr std::uint32_t kNCrit = 256;
/// Leapfrog step: 2^-7 N-body time units, small against the Plummer
/// crossing time (~2.8), so a run of steps keeps the sphere in virial
/// equilibrium and the work per step nearly constant.
inline constexpr double kDt = 1.0 / 128.0;

inline unsigned bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

inline g5::core::ForceParams force_params(const Workload& w) {
  g5::core::ForceParams p;
  p.eps = kEps;
  p.theta = kTheta;
  p.n_crit = kNCrit;
  p.threads = bench_threads();
  p.backend = w.backend;
  return p;
}

/// `count` distinct indices from [0, n), seeded, in ascending order.
inline std::vector<std::size_t> seeded_sample(std::size_t n, std::size_t count,
                                              std::uint64_t seed) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  count = std::min(count, n);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(idx[i], idx[i + rng() % (n - i)]);
  }
  idx.resize(count);
  std::sort(idx.begin(), idx.end());
  return idx;
}

}  // namespace g5bench
