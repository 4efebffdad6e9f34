// E8 — kernel-level microbenchmarks (google-benchmark): the building
// blocks whose costs the models in core/perf.hpp abstract. Useful for
// porting the calibration to a new host.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "core/analysis.hpp"
#include "grape/cycle_sim.hpp"
#include "grape/driver.hpp"
#include "grape/host_reference.hpp"
#include "ic/plummer.hpp"
#include "ic/uniform.hpp"
#include "math/fft.hpp"
#include "math/lns.hpp"
#include "math/morton.hpp"
#include "math/rng.hpp"
#include "tree/groupwalk.hpp"
#include "tree/tree.hpp"
#include "util/isa.hpp"

namespace {

using namespace g5;
using grape::Vec3d;

const model::ParticleSet& cached_plummer(std::size_t n) {
  static std::map<std::size_t, model::ParticleSet> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    ic::PlummerConfig pc;
    pc.n = n;
    pc.seed = 31;
    it = cache.emplace(n, ic::make_plummer(pc)).first;
  }
  return it->second;
}

void BM_TreeBuild(benchmark::State& state) {
  const auto& pset = cached_plummer(static_cast<std::size_t>(state.range(0)));
  tree::BhTree tree;
  for (auto _ : state) {
    tree.build(pset);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeBuild)->Arg(1024)->Arg(8192)->Arg(32768);

void BM_WalkOriginal(benchmark::State& state) {
  const auto& pset = cached_plummer(static_cast<std::size_t>(state.range(0)));
  tree::BhTree tree;
  tree.build(pset);
  tree::InteractionList list;
  const tree::WalkConfig wc{0.75};
  std::size_t i = 0;
  for (auto _ : state) {
    tree::walk_original(tree, tree.sorted_pos()[i % pset.size()], wc, list);
    benchmark::DoNotOptimize(list.size());
    ++i;
  }
}
BENCHMARK(BM_WalkOriginal)->Arg(8192)->Arg(32768);

void BM_WalkGroup(benchmark::State& state) {
  const auto& pset = cached_plummer(8192);
  tree::BhTree tree;
  tree.build(pset);
  const auto groups = tree::collect_groups(
      tree, tree::GroupConfig{static_cast<std::uint32_t>(state.range(0))});
  tree::InteractionList list;
  const tree::WalkConfig wc{0.75};
  std::size_t g = 0;
  for (auto _ : state) {
    tree::walk_group(tree, groups[g % groups.size()], wc, list);
    benchmark::DoNotOptimize(list.size());
    ++g;
  }
}
BENCHMARK(BM_WalkGroup)->Arg(64)->Arg(256)->Arg(1024);

/// Every target's original-walk list over the 65,536-body Plummer set,
/// one thread, in ns per list entry: /0 walks each target alone
/// (walk_original, what compute_targets runs), /1 walks each n_crit-256
/// group's frontier once and builds its members' lists from it
/// (walk_frontier + walk_member, what host-tree-original's compute runs).
/// The lists are the same, entry for entry.
void BM_WalkOriginalAll(benchmark::State& state) {
  const auto& pset = cached_plummer(65536);
  tree::BhTree tree;
  tree.build(pset);
  const auto groups = tree::collect_groups(tree, tree::GroupConfig{256});
  tree::InteractionList list;
  tree::WalkFrontier frontier;
  const tree::WalkConfig wc{0.75};
  const bool grouped = state.range(0) != 0;
  std::uint64_t entries = 0;
  for (auto _ : state) {
    for (const tree::Group& group : groups) {
      if (grouped) tree::walk_frontier(tree, group, wc, frontier);
      for (std::uint32_t k = group.first; k < group.first + group.count; ++k) {
        const Vec3d& target = tree.sorted_pos()[k];
        entries += grouped ? tree::walk_member(tree, frontier, target, wc, list)
                           : tree::walk_original(tree, target, wc, list);
        benchmark::DoNotOptimize(list.pos.data());
      }
    }
  }
  state.counters["ns_per_entry"] = benchmark::Counter(
      1e-9 * static_cast<double>(entries),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(grouped ? "frontier" : "per-target");
}
BENCHMARK(BM_WalkOriginalAll)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// grape::host_forces_on_targets, the tests' scalar oracle — no engine
/// runs it; BM_HostListKernel times the host engines' list kernel.
void BM_HostKernel(benchmark::State& state) {
  const auto& pset = cached_plummer(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = pset.size();
  std::vector<Vec3d> acc(n);
  std::vector<double> pot(n);
  for (auto _ : state) {
    grape::host_forces_on_targets(
        std::span<const Vec3d>(pset.pos().data(), 256), pset.pos(),
        pset.mass(), 0.01, std::span<Vec3d>(acc.data(), 256),
        std::span<double>(pot.data(), 256));
    benchmark::DoNotOptimize(acc[0]);
  }
  state.SetItemsProcessed(state.iterations() * 256 *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HostKernel)->Arg(4096)->Arg(16384);

/// Pipeline::evaluate — the device's only entry point, which the engines'
/// list lanes call — on a call shaped like a native-65k group: 1,400
/// j-words of a Plummer N = 65,536 snapshot streamed past 64 of them as
/// targets (each meets itself: the coincidence cut runs), on the window
/// and quanta the engines install for that snapshot.
void BM_PipelineEvaluate(benchmark::State& state) {
  constexpr std::size_t kJ = 1400;
  constexpr std::size_t kTargets = 64;
  grape::PipelineNumerics num;
  if (state.range(0) != 0) num.backend = grape::BackendKind::Native;
  grape::Pipeline pipe(num);
  const auto& pset = cached_plummer(65536);
  const model::Aabb box = pset.bounding_box();
  pipe.configure(
      grape::snapshot_window(box.lo, box.hi, pset.mass()).scaling(0.01));
  std::vector<grape::JWord> js(kJ);
  for (std::size_t k = 0; k < kJ; ++k) {
    js[k] = pipe.encode_j(pset.pos()[k], pset.mass()[k]);
  }
  const std::span<const Vec3d> targets(pset.pos().data(), kTargets);
  std::vector<grape::RawForce> raw(kTargets);
  grape::EvalStage stage;
  for (auto _ : state) {
    pipe.evaluate(js, targets, raw, stage);
    benchmark::DoNotOptimize(raw.data());
    benchmark::ClobberMemory();
    if (std::any_of(raw.begin(), raw.end(),
                    [](const grape::RawForce& r) { return r.saturated; })) {
      state.SkipWithError("accumulators saturated: the bench would time "
                          "the rail branch");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kJ * kTargets));
  state.SetLabel(num.backend == grape::BackendKind::Native ? "native"
                                                          : "lns-datapath");
}
BENCHMARK(BM_PipelineEvaluate)->Arg(0)->Arg(1);

/// tree::evaluate_list_host — the host engines' list kernel — on
/// BM_PipelineEvaluate's call shape: 1,400 entries of the Plummer
/// N = 65,536 snapshot streamed past 64 of them as targets, with their
/// self masses as the grouped engine passes them. Its ns per interaction
/// reads against BM_PipelineEvaluate/1 (Native) from the same binary.
void BM_HostListKernel(benchmark::State& state) {
  constexpr std::size_t kJ = 1400;
  constexpr std::size_t kTargets = 64;
  const auto& pset = cached_plummer(65536);
  tree::InteractionList list;
  for (std::size_t k = 0; k < kJ; ++k) {
    list.push(pset.pos()[k], pset.mass()[k]);
  }
  const std::span<const Vec3d> targets(pset.pos().data(), kTargets);
  const std::span<const double> self_mass(pset.mass().data(), kTargets);
  std::vector<Vec3d> acc(kTargets);
  std::vector<double> pot(kTargets);
  for (auto _ : state) {
    tree::evaluate_list_host(list, targets, 0.01, acc, pot, self_mass);
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kJ * kTargets));
}
BENCHMARK(BM_HostListKernel);

/// Log-uniform magnitudes, both signs, across the exponent range the
/// pipeline feeds the codec: from squares of coordinate differences near
/// the 2^-32 position quantum up to r^2 sums of a wide window.
std::vector<double> log_uniform_inputs(std::size_t n) {
  math::Rng rng(9);
  std::vector<double> xs(n);
  for (auto& x : xs) {
    x = std::exp2(rng.uniform(-64.0, 16.0)) *
        (rng.uniform() < 0.5 ? -1.0 : 1.0);
  }
  return xs;
}

void BM_LnsEncode(benchmark::State& state) {
  const math::LnsFormat fmt(static_cast<int>(state.range(0)));
  const std::vector<double> xs = log_uniform_inputs(1024);
  for (auto _ : state) {
    std::int64_t sink = 0;
    for (double x : xs) sink += fmt.from_double(x).logval.bits();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_LnsEncode)->Arg(8)->Arg(12);

void BM_LnsDecode(benchmark::State& state) {
  const math::LnsFormat fmt(static_cast<int>(state.range(0)));
  std::vector<math::LnsValue> ws;
  for (double x : log_uniform_inputs(1024)) ws.push_back(fmt.from_double(x));
  for (auto _ : state) {
    double sink = 0.0;
    for (const auto& w : ws) sink += fmt.to_double(w);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_LnsDecode)->Arg(8)->Arg(12);

void BM_MortonEncode(benchmark::State& state) {
  math::Rng rng(17);
  std::vector<math::Vec3d> ps(1024);
  for (auto& p : ps) p = rng.in_unit_ball();
  const math::Vec3d lo{-1.0, -1.0, -1.0};
  for (auto _ : state) {
    std::uint64_t sink = 0;
    for (const auto& p : ps) sink ^= math::morton_key(p, lo, 2.0);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MortonEncode);

void BM_Fft3D(benchmark::State& state) {
  math::Grid3C grid(static_cast<std::size_t>(state.range(0)));
  grid.at(1, 2, 3) = math::Complex(1.0, 0.0);
  for (auto _ : state) {
    grid.forward();
    grid.inverse();
    benchmark::DoNotOptimize(grid.at(1, 2, 3));
  }
}
BENCHMARK(BM_Fft3D)->Arg(16)->Arg(32);

void BM_EvaluateListQuadrupole(benchmark::State& state) {
  const bool quad = state.range(0) != 0;
  const auto& pset = cached_plummer(8192);
  tree::BhTree tree;
  tree::TreeBuildConfig cfg;
  cfg.quadrupole = quad;
  tree.build(pset, cfg);
  tree::InteractionList list;
  tree::WalkConfig wc;
  wc.use_quadrupole = quad;
  tree::walk_original(tree, pset.pos()[0], wc, list);
  Vec3d acc;
  double pot;
  const Vec3d target = pset.pos()[0];
  for (auto _ : state) {
    tree::evaluate_list_host(list, {&target, 1}, 0.01, {&acc, 1}, {&pot, 1});
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(list.size()));
  state.SetLabel(quad ? "monopole+quadrupole" : "monopole");
}
BENCHMARK(BM_EvaluateListQuadrupole)->Arg(0)->Arg(1);

void BM_CorrelationFunction(benchmark::State& state) {
  const auto& pset = cached_plummer(static_cast<std::size_t>(state.range(0)));
  core::CorrelationConfig cfg;
  cfg.r_min = 0.05;
  cfg.r_max = 2.0;
  cfg.bins = 12;
  for (auto _ : state) {
    const auto xi = core::correlation_function(pset, cfg);
    benchmark::DoNotOptimize(xi.xi[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CorrelationFunction)->Arg(4096)->Arg(16384);

void BM_CycleSim(benchmark::State& state) {
  const grape::SystemConfig cfg = grape::SystemConfig::paper_system();
  for (auto _ : state) {
    const auto r = grape::simulate_system_call(cfg, 2000, 13431);
    benchmark::DoNotOptimize(r.seconds);
  }
}
BENCHMARK(BM_CycleSim);

void BM_GrapeForceCall(benchmark::State& state) {
  const auto src = ic::make_uniform_cube(
      static_cast<std::size_t>(state.range(0)), -1.0, 1.0, 1.0, 5);
  grape::Grape5Device device;
  device.set_range(-2.0, 2.0, 1.0);  // the cube's mass, all in each call
  device.set_eps(0.01);
  device.set_j(src.pos(), src.mass());
  std::vector<Vec3d> acc(128);
  std::vector<double> pot(128);
  for (auto _ : state) {
    device.compute_forces(std::span<const Vec3d>(src.pos().data(), 128), acc,
                          pot);
    benchmark::DoNotOptimize(acc[0]);
  }
  state.SetItemsProcessed(state.iterations() * 128 * state.range(0));
}
BENCHMARK(BM_GrapeForceCall)->Arg(1024)->Arg(4096);

}  // namespace

// benchmark_main's main, plus the kernel clone in the context block, so
// a ns-per-interaction row says which G5_ISA_CLONES clone it timed.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("kernel_isa", g5::util::kernel_isa());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
