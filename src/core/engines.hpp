// Concrete force engines. See engine.hpp for the contract.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "grape/driver.hpp"
#include "tree/groupwalk.hpp"
#include "tree/tree.hpp"
#include "util/parallel.hpp"

namespace g5::core {

/// The force half of a tree engine's lane work: evaluate one interaction
/// list on its targets. Two implementations — host double
/// (HostListKernel) and the emulated GRAPE-5 (GrapeListKernel).
///
/// Phase protocol: begin_phase() and end_phase() run on the calling
/// thread outside any parallel region; evaluate() runs on pool lane
/// `lane` inside one, and touches only that lane's state plus the
/// outputs of its own `unit`. Units number a phase's lists (groups,
/// particles or targets) 0..units-1; anything a kernel accumulates
/// across lanes is recorded per unit and folded in unit order in
/// end_phase(), so it never depends on which lane ran which unit. A
/// phase whose evaluate() threw is abandoned: end_phase() is not called
/// and the next begin_phase() starts clean.
class ListKernel {
 public:
  virtual ~ListKernel() = default;

  virtual void begin_phase(const model::ParticleSet& pset, double eps,
                           unsigned lanes, std::size_t units) = 0;
  /// Overwrite acc/pot of `targets` with the field of `list`.
  /// `self_mass` (same length as targets) names each target's own mass
  /// so a kernel can drop exactly the self term (see
  /// tree::evaluate_list_host); the GRAPE pipeline cuts coincident pairs
  /// in hardware and ignores it.
  virtual void evaluate(unsigned lane, std::size_t unit,
                        const tree::InteractionList& list,
                        std::span<const math::Vec3d> targets,
                        std::span<const double> self_mass,
                        std::span<math::Vec3d> acc,
                        std::span<double> pot) = 0;
  virtual void end_phase() {}

  /// The device the kernel charges its work to; nullptr for the host.
  [[nodiscard]] virtual grape::Grape5Device* device() const noexcept {
    return nullptr;
  }
};

/// Host double-precision list evaluation (tree::evaluate_list_host).
class HostListKernel final : public ListKernel {
 public:
  void begin_phase(const model::ParticleSet& pset, double eps, unsigned lanes,
                   std::size_t units) override;
  void evaluate(unsigned lane, std::size_t unit,
                const tree::InteractionList& list,
                std::span<const math::Vec3d> targets,
                std::span<const double> self_mass, std::span<math::Vec3d> acc,
                std::span<double> pot) override;

 private:
  double eps_ = 0.0;
};

/// List evaluation on the emulated GRAPE-5. The lanes share the engine
/// device's read-only Pipeline (Grape5System::pipeline(), configured each
/// phase): a lane encodes its list into its own j-word buffer and runs
/// Pipeline::evaluate on its targets. The counts are exact integers, so
/// the forces equal the device's jmem-chunked, board-sharded evaluation
/// bitwise, for any lane and board count. The device itself evaluates
/// nothing: end_phase() charges every unit's call shape to it in unit
/// order (Grape5Device::charge_chunked), so its account, byte meter,
/// obs counters and saturation latch equal a single-lane run's, modeled
/// doubles included.
class GrapeListKernel final : public ListKernel {
 public:
  explicit GrapeListKernel(std::shared_ptr<grape::Grape5Device> device);

  void begin_phase(const model::ParticleSet& pset, double eps, unsigned lanes,
                   std::size_t units) override;
  void evaluate(unsigned lane, std::size_t unit,
                const tree::InteractionList& list,
                std::span<const math::Vec3d> targets,
                std::span<const double> self_mass, std::span<math::Vec3d> acc,
                std::span<double> pot) override;
  void end_phase() override;
  [[nodiscard]] grape::Grape5Device* device() const noexcept override {
    return device_.get();
  }

  /// evaluate() over raw j-spans (direct summation streams the whole
  /// particle set as j).
  void evaluate_j(unsigned lane, std::size_t unit,
                  std::span<const math::Vec3d> j_pos,
                  std::span<const double> j_mass,
                  std::span<const math::Vec3d> targets,
                  std::span<math::Vec3d> acc, std::span<double> pot);

 private:
  /// One unit's driver call, recorded on its lane for the fold.
  struct Call {
    std::size_t ni = 0;
    std::size_t nj = 0;
    double emulation_seconds = 0.0;
    bool saturated = false;
  };

  /// One lane's buffers: its list as j-words, the Native staging of
  /// that list and its targets' counts.
  struct Lane {
    std::vector<grape::JWord> jwords;
    grape::EvalStage stage;
    std::vector<grape::RawForce> raw;
  };

  std::shared_ptr<grape::Grape5Device> device_;
  std::vector<Lane> lanes_;
  std::vector<Call> calls_;
};

/// Lazily (re)build a pool honoring `requested` threads (0 = auto).
util::ThreadPool& ensure_pool(std::unique_ptr<util::ThreadPool>& pool,
                              std::uint32_t requested);

/// O(N^2) direct summation in double precision on the host.
class HostDirectEngine final : public ForceEngine {
 public:
  explicit HostDirectEngine(const ForceParams& params) : ForceEngine(params) {}
  [[nodiscard]] std::string_view name() const override {
    return "host-direct";
  }
  void compute(model::ParticleSet& pset) override;
  void compute_targets(model::ParticleSet& pset,
                       std::span<const std::uint32_t> targets) override;
};

/// Barnes-Hut: parallel tree build, then each pool lane walks a unit — a
/// group (modified) or a target (original, where every particle is one
/// in slot order, and compute_targets) — and evaluates its list at once
/// through the ListKernel. The original mode's compute hands the lanes
/// n_crit groups: a lane walks a group's shared frontier once and builds
/// each member's list from it, bitwise the per-target walk's. Every unit
/// writes disjoint outputs, so the forces are bitwise-identical for any
/// thread count.
class TreeEngine final : public ForceEngine {
 public:
  enum class Mode {
    Original,  ///< per-particle interaction lists (Barnes & Hut 1986)
    Modified   ///< grouped lists (Barnes 1990)
  };

  /// A null kernel evaluates on the host.
  TreeEngine(const ForceParams& params, Mode mode,
             std::unique_ptr<ListKernel> kernel = nullptr);

  [[nodiscard]] std::string_view name() const override;
  void compute(model::ParticleSet& pset) override;
  void compute_targets(model::ParticleSet& pset,
                       std::span<const std::uint32_t> targets) override;
  [[nodiscard]] grape::Grape5Device* grape_device() const noexcept override {
    return kernel_->device();
  }

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] const tree::BhTree& tree() const noexcept { return tree_; }

 private:
  /// Per-lane scratch: lane k touches only scratch_[k] inside a parallel
  /// region (lane ownership, not a lock — what the TSan CI job checks;
  /// see docs/static_analysis.md); the calling thread reduces them in
  /// lane order afterwards.
  struct WalkScratch {
    tree::InteractionList list;
    tree::WalkFrontier frontier;  ///< the original mode's group frontier
    std::vector<math::Vec3d> acc;
    std::vector<double> pot;
    tree::WalkStats walk;
    double seconds_walk = 0.0;
    double seconds_kernel = 0.0;
    std::uint64_t interactions = 0;
    std::uint64_t groups = 0;
  };

  Mode mode_;
  std::unique_ptr<ListKernel> kernel_;
  tree::BhTree tree_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<WalkScratch> scratch_;
  std::vector<tree::Group> groups_;  ///< reused across steps
  std::vector<std::uint32_t> order_;  ///< group evaluation order
  std::vector<std::uint64_t> group_cost_;  ///< count x list length

  /// Quadrupole list entries: host kernel only — the GRAPE pipelines
  /// evaluate point masses.
  [[nodiscard]] bool quadrupole() const noexcept {
    return params_.quadrupole && kernel_->device() == nullptr;
  }
  /// Pool, lane scratch and tree for one force phase.
  util::ThreadPool& begin_phase(const model::ParticleSet& pset);
  /// Every particle's per-target list, built from its n_crit group's
  /// frontier (unit k is sorted slot k), evaluated into acc/pot.
  void walk_members(util::ThreadPool& pool, model::ParticleSet& pset);
  /// One per-target list for each of `targets` (distinct particle
  /// indices; unit i is targets[i]), evaluated into their acc/pot.
  void walk_targets(util::ThreadPool& pool, model::ParticleSet& pset,
                    std::span<const std::uint32_t> targets);
  /// Walk `unit`'s list into `ws.list` and evaluate it on `targets`.
  template <typename Walk>
  void walk_and_evaluate(WalkScratch& ws, unsigned lane, std::size_t unit,
                         Walk&& walk, std::span<const math::Vec3d> targets,
                         std::span<const double> self_mass,
                         std::span<math::Vec3d> acc, std::span<double> pot);
  /// Fill order_ with the order the lanes take groups_ in: longest
  /// first on a GRAPE kernel with more than one lane, else index order.
  void order_groups(util::ThreadPool& pool, const tree::WalkConfig& walk_cfg);
  /// Reduce per-lane accumulators into stats_ (lane order) and obs.
  void end_phase();
};

/// O(N^2) with the force loop on the emulated GRAPE-5: the i-set splits
/// into fixed blocks, each evaluated by a pool lane against the whole
/// particle set through a GrapeListKernel.
class GrapeDirectEngine final : public ForceEngine {
 public:
  GrapeDirectEngine(const ForceParams& params,
                    std::shared_ptr<grape::Grape5Device> device);
  [[nodiscard]] std::string_view name() const override {
    return "grape-direct";
  }
  void compute(model::ParticleSet& pset) override;
  void compute_targets(model::ParticleSet& pset,
                       std::span<const std::uint32_t> targets) override;
  [[nodiscard]] grape::Grape5Device* grape_device() const noexcept override {
    return kernel_.device();
  }

 private:
  GrapeListKernel kernel_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<math::Vec3d> i_pos_;  ///< compute_targets' gathered targets
  std::vector<math::Vec3d> acc_;
  std::vector<double> pot_;

  /// Forces of the whole set on `i_pos`, block-parallel.
  void evaluate_blocks(const model::ParticleSet& pset,
                       std::span<const math::Vec3d> i_pos,
                       std::span<math::Vec3d> acc, std::span<double> pot);
};

/// Factory by name ("host-direct", "host-tree", "host-tree-modified",
/// "grape-direct", "grape-tree"); grape engines get a fresh device with
/// the paper's SystemConfig unless one is supplied.
std::unique_ptr<ForceEngine> make_engine(
    const std::string& name, const ForceParams& params,
    std::shared_ptr<grape::Grape5Device> device = nullptr);

/// Shared helper: set the device range window and mass scale
/// (grape::snapshot_window) and the softening before a force phase.
/// Returns the window used.
std::pair<double, double> configure_device_window(
    grape::Grape5Device& device, const model::ParticleSet& pset, double eps);

}  // namespace g5::core
