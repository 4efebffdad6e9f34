#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/engines.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/timer.hpp"

namespace g5::core {

util::ThreadPool& ensure_pool(std::unique_ptr<util::ThreadPool>& pool,
                              std::uint32_t requested) {
  const unsigned want = util::resolve_thread_count(requested);
  if (!pool || pool->size() != want) {
    pool = std::make_unique<util::ThreadPool>(want);
  }
  return *pool;
}

TreeEngine::TreeEngine(const ForceParams& params, Mode mode,
                       std::unique_ptr<ListKernel> kernel)
    : ForceEngine(params), mode_(mode), kernel_(std::move(kernel)) {
  if (!kernel_) kernel_ = std::make_unique<HostListKernel>();
}

std::string_view TreeEngine::name() const {
  if (kernel_->device() != nullptr) return "grape-tree";
  return mode_ == Mode::Original ? "host-tree-original" : "host-tree-modified";
}

util::ThreadPool& TreeEngine::begin_phase(const model::ParticleSet& pset) {
  auto& pool = ensure_pool(pool_, params_.threads);
  scratch_.resize(pool.size());
  for (auto& ws : scratch_) {
    ws.walk = tree::WalkStats{};
    ws.seconds_walk = 0.0;
    ws.seconds_kernel = 0.0;
    ws.interactions = 0;
    ws.groups = 0;
  }
  util::Stopwatch phase;
  {
    G5_OBS_SPAN("build", "tree");
    tree::TreeBuildConfig build_cfg;
    build_cfg.leaf_max = params_.leaf_max;
    build_cfg.quadrupole = quadrupole();
    build_cfg.parallel = {params_.threads, params_.build_parallel_cutoff};
    tree_.build(pset, build_cfg, &pool);
  }
  stats_.seconds_tree_build += phase.lap();
  if (obs::enabled()) {
    obs::counter("g5.tree.builds").add(1);
    obs::counter("g5.tree.nodes").add(tree_.node_count());
  }
  return pool;
}

template <typename Walk>
void TreeEngine::walk_and_evaluate(WalkScratch& ws, unsigned lane,
                                   std::size_t unit, Walk&& walk,
                                   std::span<const math::Vec3d> targets,
                                   std::span<const double> self_mass,
                                   std::span<math::Vec3d> acc,
                                   std::span<double> pot) {
  util::Stopwatch lap;
  walk(ws.list, &ws.walk);
  ws.seconds_walk += lap.lap();
  kernel_->evaluate(lane, unit, ws.list, targets, self_mass, acc, pot);
  ws.seconds_kernel += lap.lap();
  ws.interactions += static_cast<std::uint64_t>(ws.list.size()) *
                     static_cast<std::uint64_t>(targets.size());
  ++ws.groups;
}

void TreeEngine::order_groups(util::ThreadPool& pool,
                              const tree::WalkConfig& walk_cfg) {
  order_.resize(groups_.size());
  std::iota(order_.begin(), order_.end(), std::uint32_t{0});
  if (kernel_->device() == nullptr || pool.size() == 1) return;
  // An emulated-GRAPE group costs ~count x list length, and one group
  // can hold a tenth of a phase (a 16k Plummer core group with a list of
  // ~N): handed out in index order, a large group drawn late keeps one
  // lane busy while the others idle, and the step time swings with the
  // draw. A count-only walk costs well under 1 % of the emulated
  // evaluation and lets the lanes take the groups longest first. Host
  // evaluation is ~25x cheaper per interaction than the bit-exact
  // emulation, so there the extra walk would cost more than the
  // imbalance it removes. Groups write disjoint outputs and calls are
  // charged in group order, so the order changes no result.
  group_cost_.resize(groups_.size());
  pool.parallel_for(
      groups_.size(), 8,
      [&](std::size_t begin, std::size_t end, unsigned lane) {
        util::Stopwatch lap;
        for (std::size_t gi = begin; gi < end; ++gi) {
          group_cost_[gi] =
              tree::count_group(tree_, groups_[gi], walk_cfg) *
              groups_[gi].count;
        }
        scratch_[lane].seconds_walk += lap.lap();
      });
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return group_cost_[a] > group_cost_[b];
                   });
}

void TreeEngine::end_phase() {
  kernel_->end_phase();
  double walk_cpu = 0.0;
  double kernel_cpu = 0.0;
  std::uint64_t interactions = 0;
  std::uint64_t groups = 0;
  tree::WalkStats walked;
  for (const auto& ws : scratch_) {
    walked.merge(ws.walk);
    walk_cpu += ws.seconds_walk;
    kernel_cpu += ws.seconds_kernel;
    interactions += ws.interactions;
    groups += ws.groups;
  }
  stats_.walk.merge(walked);
  stats_.seconds_walk += walk_cpu;
  stats_.seconds_kernel += kernel_cpu;
  stats_.interactions += interactions;
  stats_.groups += groups;
  if (obs::enabled()) {
    // Lane CPU seconds overlap in wall time, so they enter the phase
    // table by lap accumulation under the live walk span, not as scopes.
    obs::record_phase("walk.cpu", walk_cpu, walked.lists);
    obs::record_phase("kernel.cpu", kernel_cpu, walked.lists);
    obs::counter("g5.walk.lists").add(walked.lists);
    obs::counter("g5.walk.list_entries").add(walked.list_entries);
    obs::counter("g5.walk.interactions").add(interactions);
    obs::counter("g5.walk.groups").add(groups);
  }
  ++stats_.evaluations;
}

void TreeEngine::compute(model::ParticleSet& pset) {
  G5_OBS_SPAN("force", "engine");
  util::Stopwatch total;
  const std::size_t n = pset.size();
  pset.zero_force();
  if (n == 0) return;

  auto& pool = begin_phase(pset);
  const tree::WalkConfig walk_cfg{params_.theta, params_.mac, quadrupole()};
  const auto& orig = tree_.original_index();
  const auto& sorted_pos = tree_.sorted_pos();
  const auto& sorted_mass = tree_.sorted_mass();

  G5_OBS_SPAN("walk", "tree");
  // Distribution telemetry: hoisted once per phase (one enabled() check);
  // lanes publish through the pinned slots lock-free.
  obs::Histogram* h_list =
      obs::enabled() ? &obs::histogram("g5.walk.list_len") : nullptr;
  obs::Histogram* h_group =
      obs::enabled() ? &obs::histogram("g5.walk.group_size") : nullptr;

  // Every particle belongs to exactly one group (modified) or slot
  // (original), so each lane writes disjoint acc/pot entries: the
  // result is bitwise-identical for any assignment of units to lanes.
  // Both walks place the target itself in its own list (the original
  // walk via its leaf, the modified walk via the group's direct part);
  // the kernel drops exactly that self term.
  if (mode_ == Mode::Original) {
    kernel_->begin_phase(pset, params_.eps, pool.size(), n);
    pool.parallel_for(
        n, 32, [&](std::size_t begin, std::size_t end, unsigned lane) {
          WalkScratch& ws = scratch_[lane];
          for (std::size_t slot = begin; slot < end; ++slot) {
            math::Vec3d acc{};
            double pot = 0.0;
            walk_and_evaluate(
                ws, lane, slot,
                [&](tree::InteractionList& list, tree::WalkStats* stats) {
                  tree::walk_original(tree_, sorted_pos[slot], walk_cfg, list,
                                      stats);
                },
                {&sorted_pos[slot], 1}, {&sorted_mass[slot], 1}, {&acc, 1},
                {&pot, 1});
            if (h_list != nullptr) {
              h_list->observe(static_cast<double>(ws.list.size()));
            }
            pset.acc()[orig[slot]] = acc;
            pset.pot()[orig[slot]] = pot;
          }
        });
  } else {
    tree::collect_groups(tree_, tree::GroupConfig{params_.n_crit}, groups_);
    kernel_->begin_phase(pset, params_.eps, pool.size(), groups_.size());
    order_groups(pool, walk_cfg);
    pool.parallel_for(
        groups_.size(), 1,
        [&](std::size_t begin, std::size_t end, unsigned lane) {
          WalkScratch& ws = scratch_[lane];
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t gi = order_[i];
            const tree::Group& group = groups_[gi];
            if (ws.acc.size() < group.count) {
              ws.acc.resize(group.count);
              ws.pot.resize(group.count);
            }
            walk_and_evaluate(
                ws, lane, gi,
                [&](tree::InteractionList& list, tree::WalkStats* stats) {
                  tree::walk_group(tree_, group, walk_cfg, list, stats);
                },
                {sorted_pos.data() + group.first, group.count},
                {sorted_mass.data() + group.first, group.count},
                {ws.acc.data(), group.count}, {ws.pot.data(), group.count});
            if (h_list != nullptr) {
              h_list->observe(static_cast<double>(ws.list.size()));
              h_group->observe(static_cast<double>(group.count));
            }
            for (std::uint32_t k = 0; k < group.count; ++k) {
              const std::uint32_t dst = orig[group.first + k];
              pset.acc()[dst] = ws.acc[k];
              pset.pot()[dst] = ws.pot[k];
            }
          }
        });
  }
  end_phase();
  stats_.seconds_total += total.elapsed();
}

void TreeEngine::compute_targets(model::ParticleSet& pset,
                                 std::span<const std::uint32_t> targets) {
  G5_OBS_SPAN("force", "engine");
  util::Stopwatch total;
  if (pset.empty() || targets.empty()) return;

  auto& pool = begin_phase(pset);
  // Per-target original walks: groups do not pay off for scattered
  // subsets, as individual-timestep GRAPE codes found. Target indices
  // are distinct by the engine contract, so per-target writes stay
  // race-free.
  const tree::WalkConfig walk_cfg{params_.theta, params_.mac, quadrupole()};
  G5_OBS_SPAN("walk", "tree");
  obs::Histogram* h_list =
      obs::enabled() ? &obs::histogram("g5.walk.list_len") : nullptr;
  kernel_->begin_phase(pset, params_.eps, pool.size(), targets.size());
  pool.parallel_for(
      targets.size(), 16,
      [&](std::size_t begin, std::size_t end, unsigned lane) {
        WalkScratch& ws = scratch_[lane];
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint32_t t = targets[i];
          const math::Vec3d xi = pset.pos()[t];
          walk_and_evaluate(
              ws, lane, i,
              [&](tree::InteractionList& list, tree::WalkStats* stats) {
                tree::walk_original(tree_, xi, walk_cfg, list, stats);
              },
              {&xi, 1}, {&pset.mass()[t], 1}, {&pset.acc()[t], 1},
              {&pset.pot()[t], 1});
          if (h_list != nullptr) {
            h_list->observe(static_cast<double>(ws.list.size()));
          }
        }
      });
  end_phase();
  stats_.seconds_total += total.elapsed();
}

std::unique_ptr<ForceEngine> make_engine(
    const std::string& name, const ForceParams& params,
    std::shared_ptr<grape::Grape5Device> device) {
  auto need_device = [&]() -> std::shared_ptr<grape::Grape5Device> {
    if (device) return device;
    grape::SystemConfig cfg = grape::SystemConfig::paper_system();
    cfg.numerics.backend = params.backend;
    if (params.boards > 0) cfg.boards = params.boards;
    return std::make_shared<grape::Grape5Device>(cfg);
  };
  if (name == "host-direct") {
    return std::make_unique<HostDirectEngine>(params);
  }
  if (name == "host-tree" || name == "host-tree-original") {
    return std::make_unique<TreeEngine>(params, TreeEngine::Mode::Original);
  }
  if (name == "host-tree-modified") {
    return std::make_unique<TreeEngine>(params, TreeEngine::Mode::Modified);
  }
  if (name == "grape-direct") {
    return std::make_unique<GrapeDirectEngine>(params, need_device());
  }
  if (name == "grape-tree") {
    return std::make_unique<TreeEngine>(
        params, TreeEngine::Mode::Modified,
        std::make_unique<GrapeListKernel>(need_device()));
  }
  throw std::invalid_argument("unknown engine '" + name +
                              "' (host-direct, host-tree[-original], "
                              "host-tree-modified, grape-direct, grape-tree)");
}

}  // namespace g5::core
