// P1 — parallel group-walk scaling on the real host.
//
// The paper's host walked the tree on one Alpha core while GRAPE-5 did the
// force arithmetic; here the walk + host evaluation of TreeEngine
// (modified algorithm) runs on 1..max host threads over the same snapshot
// and we report measured wall clock, speedup over the serial run, and the
// HostCostModel projection for the same core count. Forces are checked
// bitwise against the serial run at every thread count.
//
//   ./bench_p1_parallel_walk [--n 131072] [--theta 0.75] [--ncrit 256]
//                            [--maxthreads 0 (auto)] [--eps 0.02]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/engines.hpp"
#include "core/perf.hpp"
#include "ic/plummer.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace g5;
  util::Options opt(argc, argv);
  const auto n = static_cast<std::size_t>(opt.get_int("n", 131072));
  const double theta = opt.get_double("theta", 0.75);
  const double eps = opt.get_double("eps", 0.02);
  const auto n_crit = static_cast<std::uint32_t>(opt.get_int("ncrit", 256));
  auto max_threads =
      static_cast<unsigned>(opt.get_int("maxthreads", 0));
  if (max_threads == 0) max_threads = util::resolve_thread_count();

  ic::PlummerConfig pc;
  pc.n = n;
  pc.seed = 101;
  const auto base = ic::make_plummer(pc);

  std::printf(
      "P1: parallel group walk, N=%zu, theta=%g, n_crit=%u, "
      "up to %u threads\n\n",
      n, theta, n_crit, max_threads);

  auto run = [&](std::uint32_t threads, model::ParticleSet& pset) {
    core::ForceParams fp;
    fp.eps = eps;
    fp.theta = theta;
    fp.n_crit = n_crit;
    fp.threads = threads;
    core::TreeEngine engine(fp, core::TreeEngine::Mode::Modified);
    util::Stopwatch watch;
    engine.compute(pset);
    return std::pair{watch.elapsed(), engine.stats()};
  };

  model::ParticleSet serial = base;
  const auto [serial_s, serial_stats] = run(1, serial);

  util::Table t({"threads", "wall s", "speedup", "modeled", "walk cpu-s",
                 "kernel cpu-s", "bitwise"});
  core::HostCostModel model;
  t.add_row({"1", util::sci(serial_s), "1.00", "1.00",
             util::sci(serial_stats.seconds_walk),
             util::sci(serial_stats.seconds_kernel), "ref"});

  bool all_identical = true;
  for (unsigned threads = 2; threads <= max_threads; threads *= 2) {
    model::ParticleSet pset = base;
    const auto [wall_s, stats] = run(threads, pset);
    bool identical = true;
    for (std::size_t i = 0; i < pset.size(); ++i) {
      if (!(pset.acc()[i] == serial.acc()[i]) ||
          pset.pot()[i] != serial.pot()[i]) {
        identical = false;
        break;
      }
    }
    all_identical = all_identical && identical;
    model.threads = threads;
    char speedup[32], modeled[32];
    std::snprintf(speedup, sizeof speedup, "%.2f", serial_s / wall_s);
    std::snprintf(modeled, sizeof modeled, "%.2f", model.walk_speedup());
    t.add_row({std::to_string(threads), util::sci(wall_s), speedup, modeled,
               util::sci(stats.seconds_walk), util::sci(stats.seconds_kernel),
               identical ? "yes" : "NO"});
  }
  t.print();
  std::printf(
      "\nspeedup = serial wall / threaded wall (walk + host kernel phases;"
      "\nsee bench_p4_treebuild for the build phase on its own)."
      "\nmodeled = HostCostModel.walk_speedup()."
      "\nbitwise = forces identical to the serial run.\n");
  if (!all_identical) {
    std::printf("ERROR: threaded run diverged from serial forces\n");
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
