// E1 — Section 5 statistics table (the paper's headline numbers).
//
// Three blocks:
//  (1) the paper's published row;
//  (2) the cycle/cost model evaluated on the paper's own workload
//      (N = 2,159,038, 999 steps, 2.90e13 interactions) — checks that our
//      GRAPE-5 timing model + calibrated host model reproduce the
//      published wall clock, Gflops and $/Mflops;
//  (3) a real scaled run on the emulated hardware (SCDM sphere, the same
//      code path end to end), with its measured workload pushed through
//      the same models, plus the measured-vs-modeled comparison.
//
//   ./bench_e1_section5 [--grid 32] [--steps 48] [--ncrit 256] [--theta 0.75]

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/engines.hpp"
#include "core/perf.hpp"
#include "core/simulation.hpp"
#include "ic/zeldovich.hpp"
#include "model/units.hpp"
#include "tree/groupwalk.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

using namespace g5;

void print_report(const char* title, const core::PerformanceReport& r) {
  std::printf("\n%s\n", title);
  util::Table t({"quantity", "value"});
  t.add_row({"N", std::to_string(r.work.n_particles)});
  t.add_row({"timesteps", std::to_string(r.work.steps)});
  t.add_row({"total interactions (modified tree)",
             util::sci(static_cast<double>(r.work.interactions))});
  t.add_row({"average interaction-list length",
             util::sci(r.avg_list_length, 4)});
  t.add_row({"interactions (original tree, est.)",
             util::sci(static_cast<double>(r.work.original_interactions))});
  t.add_row({"GRAPE-5 compute (modeled)", util::human_seconds(r.grape_compute_s)});
  t.add_row({"GRAPE-5 DMA (modeled)", util::human_seconds(r.grape_dma_s)});
  t.add_row({"host time (modeled 1999 host)", util::human_seconds(r.host_s)});
  t.add_row({"total wall clock (modeled)", util::human_seconds(r.total_s)});
  t.add_row({"raw speed", util::human_flops(r.raw_flops)});
  t.add_row({"effective sustained speed", util::human_flops(r.effective_flops)});
  char usd[32];
  std::snprintf(usd, sizeof(usd), "$%.0f", r.usd_total);
  t.add_row({"system cost", usd});
  std::snprintf(usd, sizeof(usd), "$%.1f/Mflops", r.usd_per_mflops);
  t.add_row({"price/performance", usd});
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const grape::SystemConfig system = grape::SystemConfig::paper_system();
  const core::HostCostModel host_model;
  const grape::CostModel cost;

  // ---- block 1: the published numbers ---------------------------------
  std::printf("E1: Section 5 of Kawai, Fukushige & Makino (SC'99)\n");
  std::printf("\npaper (published):\n");
  util::Table paper({"quantity", "value"});
  paper.add_row({"N", "2159038"});
  paper.add_row({"timesteps", "999"});
  paper.add_row({"total interactions (modified tree)", "2.90e+13"});
  paper.add_row({"average interaction-list length", "13431"});
  paper.add_row({"interactions (original tree, est.)", "4.69e+12"});
  paper.add_row({"total wall clock", "30141 s (8.37 h)"});
  paper.add_row({"raw speed", "36.4 Gflops"});
  paper.add_row({"effective sustained speed", "5.92 Gflops"});
  paper.add_row({"system cost", "$40900"});
  paper.add_row({"price/performance", "$7.0/Mflops"});
  paper.print();

  // ---- block 2: model on the paper's workload -------------------------
  const core::RunWorkload pw = core::paper_workload();
  const auto projected = core::project_performance(system, host_model, cost, pw);
  print_report("model on the paper's workload (should reproduce the row "
               "above):", projected);

  // ---- block 3: scaled end-to-end run on the emulated hardware --------
  ic::CosmologicalSphereConfig cc;
  cc.grid_n = static_cast<std::size_t>(opt.get_int("grid", 32));
  while ((cc.grid_n & (cc.grid_n - 1)) != 0) ++cc.grid_n;
  cc.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1999));

  const auto icr = ic::make_cosmological_sphere(cc);
  model::ParticleSet pset = icr.particles;
  const double G = model::gravitational_constant();
  for (auto& m : pset.mass()) m *= G;

  core::ForceParams fp;
  const double spacing = icr.box_size / static_cast<double>(cc.grid_n);
  fp.eps = opt.get_double("eps", 0.05 * spacing);
  fp.theta = opt.get_double("theta", 0.75);
  fp.n_crit = static_cast<std::uint32_t>(opt.get_int("ncrit", 256));

  auto engine = core::make_engine("grape-tree", fp);

  core::SimulationConfig sc;
  sc.steps = static_cast<std::uint64_t>(opt.get_int("steps", 48));
  const model::Cosmology cosmo(cc.cosmo);
  sc.dt_schedule = cosmo.log_a_timesteps(icr.a_start, 1.0, sc.steps);
  sc.log_every = 0;

  std::printf("\nscaled run on the emulated hardware: N=%zu, %llu steps, "
              "n_crit=%u, theta=%g\n",
              pset.size(), static_cast<unsigned long long>(sc.steps),
              fp.n_crit, fp.theta);

  // Track how the per-step mean list length evolves (the quantity behind
  // the paper's "average length of the interaction list is 13,431" —
  // clustering lengthens the lists as the run progresses).
  std::vector<double> step_mean_list;
  core::Simulation sim(*engine, sc);
  std::uint64_t prev_lists = 0, prev_entries = 0;
  sim.set_step_hook([&](std::uint64_t, const model::ParticleSet&) {
    const auto& walk = engine->stats().walk;
    if (walk.lists > prev_lists) {
      step_mean_list.push_back(
          static_cast<double>(walk.list_entries - prev_entries) /
          static_cast<double>(walk.lists - prev_lists));
      prev_lists = walk.lists;
      prev_entries = walk.list_entries;
    }
  });
  const auto summary = sim.run(pset);

  // Estimate the original-tree interaction count on the final snapshot
  // (the paper did this with five snapshots; E4 sweeps epochs).
  tree::BhTree tree;
  tree::TreeBuildConfig tb;
  tb.leaf_max = fp.leaf_max;
  tree.build(pset, tb);
  tree::WalkStats orig_stats;
  const tree::WalkConfig wc{fp.theta};
  for (std::size_t i = 0; i < pset.size(); ++i) {
    tree::count_original(tree, tree.sorted_pos()[i], wc, &orig_stats);
  }
  // Scale the per-step original count to the whole run.
  const double steps_d = static_cast<double>(summary.steps + 1);

  core::RunWorkload scaled;
  scaled.n_particles = pset.size();
  scaled.steps = summary.steps + 1;  // prime + steps force phases
  scaled.interactions = summary.engine.interactions;
  scaled.list_entries = summary.engine.walk.list_entries;
  scaled.groups = summary.engine.groups;
  scaled.original_interactions = static_cast<std::uint64_t>(
      static_cast<double>(orig_stats.interactions) * steps_d);
  const auto scaled_report =
      core::project_performance(system, host_model, cost, scaled);
  print_report("scaled run, measured workload through the same models:",
               scaled_report);

  std::printf("\nscaled run, measured quantities:\n");
  util::Table m({"quantity", "value"});
  m.add_row({"emulation wall clock (measured)",
             util::human_seconds(summary.wall_seconds)});
  m.add_row({"pipeline emulation time (measured)",
             util::human_seconds(summary.grape.emulation_wall)});
  m.add_row({"host tree build (measured)",
             util::human_seconds(summary.engine.seconds_tree_build)});
  m.add_row({"host tree walk (measured)",
             util::human_seconds(summary.engine.seconds_walk)});
  // A cosmological sphere's total energy is near zero (Hubble-flow kinetic
  // vs potential), so normalize the drift by |W| instead of |E|.
  const double w_final = std::fabs(summary.energy_final.potential);
  m.add_row({"energy drift / |W|",
             util::sci(std::fabs(summary.energy_final.total() -
                                 summary.energy_initial.total()) /
                       std::max(w_final, 1e-300))});
  m.add_row({"mean list length (measured)",
             util::sci(summary.engine.walk.mean_list(), 4)});
  m.add_row({"modified/original interaction ratio",
             util::sci(static_cast<double>(scaled.interactions) /
                           static_cast<double>(
                               std::max<std::uint64_t>(
                                   scaled.original_interactions, 1)),
                       3)});
  m.add_row({"bytes moved host<->GRAPE",
             util::human_bytes(static_cast<double>(
                 engine->grape_device()->system().bytes_moved()))});
  m.print();

  if (step_mean_list.size() >= 4) {
    std::printf("\nmean list length vs epoch (at paper scale clustering "
                "lengthens lists; at this\nminiature radius bulk dispersal "
                "competes — see E6's scale caveat):\n  start %.0f -> "
                "quarter %.0f -> half %.0f -> end %.0f\n",
                step_mean_list.front(),
                step_mean_list[step_mean_list.size() / 4],
                step_mean_list[step_mean_list.size() / 2],
                step_mean_list.back());
  }

  std::printf("\nNOTE: 'modeled' rows use the GRAPE-5 cycle/DMA model and the "
              "calibrated 1999-host cost model\n(DESIGN.md section 7); "
              "'measured' rows are wall clock of this emulation run.\n");
  return 0;
}
