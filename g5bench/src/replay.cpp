#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <span>

#include "core/engines.hpp"
#include "grape/driver.hpp"
#include "tree/groupwalk.hpp"
#include "tree/tree.hpp"
#include "tree/walk.hpp"

namespace g5bench {

namespace {

using g5::math::Vec3d;
using Scope = SpanRecorder::Scope;

/// One driver call: stream the list through the particle memory in
/// jmem-sized chunks, merging the integer partial sums, then convert once
/// (what Grape5Device::compute_forces_chunked does).
void evaluate_on_grape(g5::grape::Grape5System& sys,
                       const g5::tree::InteractionList& list,
                       std::span<const Vec3d> targets,
                       std::vector<g5::grape::RawForce>& raw,
                       std::span<Vec3d> acc, std::span<double> pot,
                       ReplayResult& r, SpanRecorder* rec) {
  const std::size_t ni = targets.size();
  raw.assign(ni, g5::grape::RawForce{});
  const std::span<const Vec3d> j_pos(list.pos);
  const std::span<const double> j_mass(list.mass);
  const std::size_t cap = sys.jmem_capacity();
  for (std::size_t off = 0; off < j_pos.size(); off += cap) {
    const std::size_t len = std::min(cap, j_pos.size() - off);
    {
      const Scope s(rec, "grape.set_j");
      sys.set_j_particles(j_pos.subspan(off, len), j_mass.subspan(off, len));
    }
    r.j_words += len;
    const Scope s(rec, "grape.compute_raw");
    r.interactions += sys.compute_raw(targets, raw);
  }
  {
    const Scope s(rec, "grape.readout");
    const double fq = sys.pipeline().force_accumulator_quantum();
    const double pq = sys.pipeline().potential_accumulator_quantum();
    for (std::size_t i = 0; i < ni; ++i) {
      acc[i] = Vec3d{static_cast<double>(raw[i].acc[0]) * fq,
                     static_cast<double>(raw[i].acc[1]) * fq,
                     static_cast<double>(raw[i].acc[2]) * fq};
      pot[i] = static_cast<double>(raw[i].pot) * pq;
    }
  }
  r.i_particles += ni;
  ++r.driver_calls;
  // Per-call accounting: the saturation latch and the account both run
  // from the last reset, so reset after every call.
  if (sys.any_saturation()) ++r.saturated_calls;
  const g5::grape::HardwareAccount& acct = sys.account();
  r.i_processed += acct.i_processed;
  r.vmp_slots += acct.vmp_slots;
  r.modeled_s += acct.modeled_total();
  sys.reset_account();
}

}  // namespace

ReplayResult replay_force_phase(const g5::model::ParticleSet& pset,
                                const Workload& w, std::size_t sample,
                                std::uint64_t sample_seed, SpanRecorder* rec) {
  namespace tree = g5::tree;
  const std::size_t n = pset.size();
  ReplayResult r;
  r.acc.assign(n, Vec3d{});
  r.pot.assign(n, 0.0);

  // The engine builds its device once, in make_engine; so does the replay,
  // outside the layer calls it times.
  std::unique_ptr<g5::grape::Grape5Device> device;
  if (w.grape) {
    g5::grape::SystemConfig cfg = g5::grape::SystemConfig::paper_system();
    cfg.numerics.backend = w.backend;
    device = std::make_unique<g5::grape::Grape5Device>(cfg);
  }
  tree::BhTree bh;
  std::vector<tree::Group> groups;
  tree::InteractionList list;
  tree::WalkStats walked;
  std::vector<g5::grape::RawForce> raw;
  std::vector<Vec3d> acc(1);
  std::vector<double> pot(1);

  const auto start = std::chrono::steady_clock::now();
  {
    const Scope s(rec, "tree.build");
    bh.build(pset);  // no pool: the serial build, bitwise the parallel one
  }
  if (w.grape) {
    const Scope s(rec, "grape.window");
    g5::core::configure_device_window(*device, pset, kEps);
  }
  std::size_t units = n;
  if (w.grouped) {
    const Scope s(rec, "tree.collect_groups");
    tree::collect_groups(bh, tree::GroupConfig{kNCrit}, groups);
    units = groups.size();
    r.groups = groups.size();
  }
  std::vector<std::size_t> picks;
  if (sample > 0) {
    picks = seeded_sample(units, sample, sample_seed);
  } else {
    picks.resize(units);
    std::iota(picks.begin(), picks.end(), std::size_t{0});
  }

  const tree::WalkConfig walk_cfg{kTheta};
  const auto& sorted_pos = bh.sorted_pos();
  const auto& sorted_mass = bh.sorted_mass();
  const auto& orig = bh.original_index();
  for (const std::size_t u : picks) {
    std::uint32_t first = static_cast<std::uint32_t>(u);
    std::uint32_t count = 1;
    {
      const Scope s(rec, "tree.walk");
      if (w.grouped) {
        tree::walk_group(bh, groups[u], walk_cfg, list, &walked);
        first = groups[u].first;
        count = groups[u].count;
      } else {
        tree::walk_original(bh, sorted_pos[u], walk_cfg, list, &walked);
      }
    }
    if (acc.size() < count) {
      acc.resize(count);
      pot.resize(count);
    }
    const std::span<const Vec3d> targets(sorted_pos.data() + first, count);
    const std::span<Vec3d> acc_out(acc.data(), count);
    const std::span<double> pot_out(pot.data(), count);
    if (w.grape) {
      evaluate_on_grape(device->system(), list, targets, raw, acc_out,
                        pot_out, r, rec);
    } else {
      const Scope s(rec, "host.kernel");
      tree::evaluate_list_host(
          list, targets, kEps, acc_out, pot_out,
          std::span<const double>(sorted_mass.data() + first, count));
      r.interactions += static_cast<std::uint64_t>(list.size()) * count;
    }
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::uint32_t dst = orig[first + k];
      r.acc[dst] = acc[k];
      r.pot[dst] = pot[k];
      r.replayed.push_back(dst);
    }
  }
  r.force_seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  r.lists = walked.lists;
  r.list_entries = walked.list_entries;
  return r;
}

}  // namespace g5bench
