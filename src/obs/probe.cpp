#include "obs/probe.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "grape/config.hpp"
#include "grape/host_reference.hpp"
#include "grape/pipeline.hpp"
#include "math/rng.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace g5::obs {

namespace {

/// Exact order-statistic percentile (ceil convention, q in [0, 1]) of an
/// already-sorted sample.
double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

struct Stats {
  double p50 = 0.0, p99 = 0.0, max = 0.0;
};

Stats summarize(std::vector<double>& errs) {
  std::sort(errs.begin(), errs.end());
  Stats s;
  if (!errs.empty()) {
    s.p50 = percentile_sorted(errs, 0.50);
    s.p99 = percentile_sorted(errs, 0.99);
    s.max = errs.back();
  }
  return s;
}

void publish(const char* base, const Stats& s,
             const std::vector<double>& errs) {
  Histogram& h = histogram(base);
  for (double e : errs) h.observe(e);
  gauge(std::string(base) + ".p50").set(s.p50);
  gauge(std::string(base) + ".p99").set(s.p99);
}

/// Emulated pipeline configured exactly as the engines' device path:
/// the same window policy (grape::snapshot_window) and quanta.
grape::Pipeline make_codec_pipeline(const model::ParticleSet& pset,
                                    double eps, grape::BackendKind backend) {
  const model::Aabb box = pset.bounding_box();
  grape::PipelineNumerics numerics;
  numerics.backend = backend;
  grape::Pipeline pipeline{numerics};
  pipeline.configure(
      grape::snapshot_window(box.lo, box.hi, pset.mass()).scaling(eps));
  return pipeline;
}

}  // namespace

ProbeResult ForceErrorProbe::measure(const model::ParticleSet& pset) {
  G5_OBS_SPAN("probe", "obs");
  ProbeResult result;
  const std::size_t n = pset.size();
  if (n == 0 || config_.samples == 0) return result;

  // Deterministic distinct sample: a (seed, call-index) stream selects
  // via rejection, so a fixed seed reproduces the subset sequence.
  math::Rng rng(config_.seed + 0x9e3779b97f4a7c15ULL * ++calls_);
  const auto want =
      static_cast<std::size_t>(std::min<std::uint64_t>(config_.samples, n));
  indices_.clear();
  while (indices_.size() < want) {
    const auto idx = static_cast<std::uint32_t>(rng.uniform_index(n));
    if (std::find(indices_.begin(), indices_.end(), idx) == indices_.end()) {
      indices_.push_back(idx);
    }
  }

  // Exact ground truth: O(samples * N) direct sum in double, with the
  // engine convention for the self term (i_mass supplied).
  std::vector<math::Vec3d> i_pos(want), acc_exact(want);
  std::vector<double> i_mass(want), pot_exact(want);
  for (std::size_t k = 0; k < want; ++k) {
    i_pos[k] = pset.pos()[indices_[k]];
    i_mass[k] = pset.mass()[indices_[k]];
  }
  grape::host_forces_on_targets(i_pos, pset.pos(), pset.mass(), config_.eps,
                                acc_exact, pot_exact, i_mass);

  // Probe-owned tree replicating the engine's build/walk geometry.
  tree::TreeBuildConfig build_cfg;
  build_cfg.leaf_max = config_.leaf_max;
  build_cfg.quadrupole = config_.quadrupole;
  tree_.build(pset, build_cfg);
  const tree::WalkConfig walk_cfg{config_.theta, config_.mac,
                                  config_.quadrupole};

  grape::Pipeline pipeline =
      make_codec_pipeline(pset, config_.eps, config_.backend);

  err_total_.clear();
  err_tree_.clear();
  err_codec_.clear();
  for (std::size_t k = 0; k < want; ++k) {
    const math::Vec3d xi = i_pos[k];
    const double f_exact = acc_exact[k].norm();
    if (!(f_exact > 0.0)) continue;

    // Total: what the engine wrote vs exact.
    err_total_.push_back((pset.acc()[indices_[k]] - acc_exact[k]).norm() /
                         f_exact);

    // Tree component: host-double list evaluation vs exact.
    tree::walk_original(tree_, xi, walk_cfg, list_);
    math::Vec3d acc_tree{};
    double pot_tree = 0.0;
    tree::evaluate_list_host(list_, {&xi, 1}, config_.eps, {&acc_tree, 1},
                             {&pot_tree, 1}, {&i_mass[k], 1});
    err_tree_.push_back((acc_tree - acc_exact[k]).norm() / f_exact);

    // Codec component: the *same* list through the emulated pipeline vs
    // host double, both with the hardware-style zero-separation cut, so
    // the list (tree) error divides out entirely.
    math::Vec3d acc_host{};
    double pot_host = 0.0;
    tree::evaluate_list_host(list_, {&xi, 1}, config_.eps, {&acc_host, 1},
                             {&pot_host, 1});
    jwords_.resize(list_.size());
    for (std::size_t j = 0; j < list_.size(); ++j) {
      jwords_[j] = pipeline.encode_j(list_.pos[j], list_.mass[j]);
    }
    grape::RawForce raw;
    pipeline.evaluate(jwords_, {&xi, 1}, {&raw, 1}, stage_);
    math::Vec3d acc_codec{};
    double pot_codec = 0.0;
    pipeline.convert_raw(raw, acc_codec, pot_codec);
    const double f_host = acc_host.norm();
    if (f_host > 0.0) {
      err_codec_.push_back((acc_codec - acc_host).norm() / f_host);
    }
  }

  result.samples = static_cast<std::uint32_t>(err_total_.size());
  const Stats total = summarize(err_total_);
  const Stats tre = summarize(err_tree_);
  const Stats codec = summarize(err_codec_);
  result.total_p50 = total.p50;
  result.total_p99 = total.p99;
  result.total_max = total.max;
  result.tree_p50 = tre.p50;
  result.tree_p99 = tre.p99;
  result.tree_max = tre.max;
  result.codec_p50 = codec.p50;
  result.codec_p99 = codec.p99;
  result.codec_max = codec.max;

  if (enabled()) {
    publish("g5.err.force_rel", total, err_total_);
    publish("g5.err.tree_rel", tre, err_tree_);
    publish("g5.err.codec_rel", codec, err_codec_);
    counter("g5.probe.calls").add(1);
    counter("g5.probe.samples").add(result.samples);
  }
  return result;
}

}  // namespace g5::obs
