// A1 — design-choice ablations called out in DESIGN.md. Four studies:
//
//  (a) MAC variant: classic edge/d criterion vs Barnes' bmax/d — list
//      length and force error at equal theta;
//  (b) hardware generation: GRAPE-3-class vs GRAPE-5 number formats —
//      pairwise error and whole-force error through the same treecode;
//  (c) system scaling: boards = 1..8 — modeled time for the paper's
//      workload and price/performance (the knob the group actually turned
//      between GRAPE generations);
//  (d) host-interface bandwidth: where DMA starts to dominate the n_g
//      tradeoff.
//
//   ./bench_a1_ablations [--n 4096]

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/engines.hpp"
#include "core/perf.hpp"
#include "grape/host_reference.hpp"
#include "ic/plummer.hpp"
#include "tree/groupwalk.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace g5;
using math::Vec3d;

double engine_rms_error(const model::ParticleSet& base,
                        const model::ParticleSet& exact,
                        core::ForceEngine& engine) {
  model::ParticleSet work = base;
  engine.compute(work);
  util::RunningStat err;
  for (std::size_t i = 0; i < work.size(); ++i) {
    const double rn = exact.acc()[i].norm();
    if (rn > 0.0) err.add((work.acc()[i] - exact.acc()[i]).norm() / rn);
  }
  return err.rms();
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const auto n = static_cast<std::size_t>(opt.get_int("n", 4096));

  ic::PlummerConfig pc;
  pc.n = n;
  pc.seed = 2024;
  const model::ParticleSet base = ic::make_plummer(pc);
  const double eps = 0.01;
  model::ParticleSet exact = base;
  grape::host_direct_self(exact.pos(), exact.mass(), eps, exact.acc(),
                          exact.pot());

  // ---------------- (a) MAC variant + quadrupole ------------------------
  std::printf("A1(a): MAC variant and moment order (N=%zu Plummer)\n\n", n);
  {
    tree::BhTree tree;
    tree.build(base);
    util::Table t({"mac", "moments", "theta", "mean list", "inter. (1 step)",
                   "rms force err %"});
    auto add_row = [&](tree::Mac mac, bool quadrupole, double theta) {
      tree::WalkStats stats;
      const tree::WalkConfig wc{theta, mac};
      for (const auto& g :
           tree::collect_groups(tree, tree::GroupConfig{256})) {
        tree::count_group(tree, g, wc, &stats);
      }
      core::ForceParams fp;
      fp.eps = eps;
      fp.theta = theta;
      fp.n_crit = 256;
      fp.mac = mac;
      fp.quadrupole = quadrupole;
      core::TreeEngine engine(fp, core::TreeEngine::Mode::Modified);
      const double err = engine_rms_error(base, exact, engine);
      char c1[8], c2[12], c3[16], c4[16];
      std::snprintf(c1, sizeof(c1), "%.2f", theta);
      std::snprintf(c2, sizeof(c2), "%.0f", stats.mean_list());
      std::snprintf(c3, sizeof(c3), "%.3e",
                    static_cast<double>(stats.interactions));
      std::snprintf(c4, sizeof(c4), "%.4f", 100.0 * err);
      t.add_row({mac == tree::Mac::Edge ? "edge" : "bmax",
                 quadrupole ? "quad" : "mono", c1, c2, c3, c4});
    };
    for (const tree::Mac mac : {tree::Mac::Edge, tree::Mac::Bmax}) {
      for (double theta : {0.5, 0.75, 1.0}) {
        add_row(mac, false, theta);
      }
    }
    // Quadrupole (host-only: GRAPE consumes point masses) buys accuracy
    // at equal theta — or equal accuracy at larger theta/shorter lists.
    add_row(tree::Mac::Edge, true, 0.75);
    add_row(tree::Mac::Edge, true, 1.0);
    t.print();
    std::printf("(the bounding radius is a tighter size measure, so at "
                "equal theta bmax trades\nerror for list length; matching "
                "error budgets means running bmax at a smaller\ntheta — "
                "compare bmax@0.5 against edge@0.75)\n\n");
  }

  // ---------------- (b) hardware generation ----------------------------
  std::printf("A1(b): GRAPE-3-class vs GRAPE-5 number formats\n\n");
  {
    util::Table t({"machine", "pos bits", "lns frac", "whole-force rms err %"});
    struct GenRow {
      const char* name;
      grape::PipelineNumerics numerics;
      grape::SystemConfig system;
    };
    std::vector<GenRow> rows;
    rows.push_back({"GRAPE-3-class", grape::PipelineNumerics::grape3(),
                    grape::SystemConfig::grape3_system()});
    rows.push_back({"GRAPE-5", grape::PipelineNumerics{},
                    grape::SystemConfig::paper_system()});
    // The "standard 64-bit floating point" comparison is the Native
    // backend: double arithmetic on the same coordinates and accumulators.
    grape::PipelineNumerics native_numerics;
    native_numerics.backend = grape::BackendKind::Native;
    grape::SystemConfig native_system = grape::SystemConfig::paper_system();
    native_system.numerics = native_numerics;
    rows.push_back({"64-bit float", native_numerics, native_system});

    for (const auto& row : rows) {
      auto device = std::make_shared<grape::Grape5Device>(row.system);
      core::ForceParams fp;
      fp.eps = eps;
      fp.theta = 0.75;
      fp.n_crit = 256;
      const auto engine = core::make_engine("grape-tree", fp, device);
      const double err = engine_rms_error(base, exact, *engine);
      char c1[8], c2[8], c3[16];
      std::snprintf(c1, sizeof(c1), "%d", row.numerics.position_bits);
      std::snprintf(c2, sizeof(c2), "%d", row.numerics.lns_frac_bits);
      std::snprintf(c3, sizeof(c3), "%.4f", 100.0 * err);
      t.add_row({row.name, c1, c2, c3});
    }
    t.print();
    std::printf("(the GRAPE-5 row sits at the tree-error floor — the 64-bit "
                "row — while the\nGRAPE-3-class formats dominate the error "
                "budget: why GRAPE-5 was built)\n\n");
  }

  // ---------------- (c) board scaling -----------------------------------
  std::printf("A1(c): boards 1..8 on the paper's workload (modeled)\n\n");
  {
    util::Table t({"boards", "peak", "total s", "effective", "cost",
                   "$/Mflops"});
    for (std::size_t boards : {1u, 2u, 4u, 8u}) {
      grape::SystemConfig sys = grape::SystemConfig::paper_system();
      sys.boards = boards;
      grape::CostModel cost;
      cost.boards = boards;
      const auto report = core::project_performance(
          sys, core::HostCostModel{}, cost, core::paper_workload());
      char c1[24], c2[20], c3[16], c4[20], c5[12], c6[12];
      std::snprintf(c1, sizeof(c1), "%zu", boards);
      std::snprintf(c2, sizeof(c2), "%s",
                    util::human_flops(sys.peak_flops()).c_str());
      std::snprintf(c3, sizeof(c3), "%.0f", report.total_s);
      std::snprintf(c4, sizeof(c4), "%s",
                    util::human_flops(report.effective_flops).c_str());
      std::snprintf(c5, sizeof(c5), "$%.0f", report.usd_total);
      std::snprintf(c6, sizeof(c6), "%.1f", report.usd_per_mflops);
      t.add_row({c1, c2, c3, c4, c5, c6});
    }
    t.print();
    std::printf("(host work bounds the return: 4x the boards buys only "
                "~1.4x the speed and worsens\n$/Mflops; a single board is "
                "marginally cheaper per Mflops but 40%% slower to\n"
                "solution — the paper's 2-board point balances both)\n\n");
  }

  // ---------------- (d) DMA bandwidth -----------------------------------
  std::printf("A1(d): host-interface bandwidth sweep (modeled, paper "
              "workload)\n\n");
  {
    util::Table t({"bandwidth", "grape dma s", "total s", "effective"});
    for (double mb : {10.0, 30.0, 70.0, 200.0}) {
      grape::SystemConfig sys = grape::SystemConfig::paper_system();
      sys.hib.bandwidth_bytes_per_s = mb * 1e6;
      const auto report = core::project_performance(
          sys, core::HostCostModel{}, grape::CostModel{},
          core::paper_workload());
      char c1[16], c2[12], c3[12], c4[20];
      std::snprintf(c1, sizeof(c1), "%.0f MB/s", mb);
      std::snprintf(c2, sizeof(c2), "%.0f", report.grape_dma_s);
      std::snprintf(c3, sizeof(c3), "%.0f", report.total_s);
      std::snprintf(c4, sizeof(c4), "%s",
                    util::human_flops(report.effective_flops).c_str());
      t.add_row({c1, c2, c3, c4});
    }
    t.print();
    std::printf("(a 10 MB/s interface would have added ~5 h of DMA to the "
                "8.4 h run — the\nhost-interface boards mattered)\n");
  }
  return 0;
}
