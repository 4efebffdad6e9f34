// P3 — lane-parallel evaluation: thread scaling of the grape-tree engine.
//
// Each pool lane walks a group and evaluates its interaction list at once
// on a lane-private emulated GRAPE-5, so the emulated kernel — nearly all
// of a grape-tree force phase — spreads over the host's cores. The same
// Plummer snapshot runs through a fresh grape-tree engine at 1 thread and
// at --threads (0 = every core), for both arithmetic backends, and we
// report wall clock, walk and kernel CPU seconds and the speedup. Forces
// must be bitwise-identical across thread counts: the bench exits
// nonzero otherwise.
//
//   ./bench_p3_pipeline [--n 65536] [--theta 0.75] [--ncrit 256]
//                       [--eps 0.02] [--threads 0 (auto)]
//                       [--backend both|bit-exact|native]
//                       [--boards 0 (paper)] [--json FILE]
//
// --backend selects the pipeline arithmetic (BackendKind): bit-exact is
// the bit-level datapath, native evaluates the same lists in plain
// double. --boards scales the emulated cluster (0 = the paper's 2
// boards); forces stay bitwise-identical across B too (docs/scaling.md).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/engines.hpp"
#include "ic/plummer.hpp"
#include "util/options.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace g5;

struct RunResult {
  double wall_s = 0.0;
  double walk_cpu_s = 0.0;
  double kernel_cpu_s = 0.0;
  model::ParticleSet pset;
};

struct Row {
  grape::BackendKind backend;
  RunResult serial;
  RunResult parallel;
  bool identical = false;
  [[nodiscard]] double speedup() const {
    return parallel.wall_s > 0.0 ? serial.wall_s / parallel.wall_s : 0.0;
  }
};

bool same_forces(const model::ParticleSet& a, const model::ParticleSet& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a.acc()[i] == b.acc()[i]) || a.pot()[i] != b.pot()[i]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const auto n = static_cast<std::size_t>(opt.get_int("n", 65536));
  const double theta = opt.get_double("theta", 0.75);
  const double eps = opt.get_double("eps", 0.02);
  const auto n_crit = static_cast<std::uint32_t>(opt.get_int("ncrit", 256));
  const unsigned threads = util::resolve_thread_count(
      static_cast<unsigned>(opt.get_int("threads", 0)));
  const std::string json = opt.get_string("json", "");
  const auto boards = static_cast<std::uint32_t>(opt.get_int("boards", 0));
  const std::string backend_str = opt.get_string("backend", "both");
  std::vector<grape::BackendKind> backends;
  if (backend_str == "both") {
    backends = {grape::BackendKind::BitExact, grape::BackendKind::Native};
  } else {
    grape::BackendKind backend = grape::BackendKind::BitExact;
    if (!grape::parse_backend(backend_str, backend)) {
      std::printf("ERROR: unknown --backend '%s' (both, bit-exact, native)\n",
                  backend_str.c_str());
      return EXIT_FAILURE;
    }
    backends = {backend};
  }

  ic::PlummerConfig pc;
  pc.n = n;
  pc.seed = 211;
  const auto base = ic::make_plummer(pc);

  std::printf(
      "P3: grape-tree thread scaling, N=%zu, theta=%g, n_crit=%u, "
      "threads 1 vs %u, boards=%u (0=paper)\n\n",
      n, theta, n_crit, threads, boards);

  auto run = [&](grape::BackendKind backend, unsigned lanes) {
    RunResult r;
    r.pset = base;
    core::ForceParams fp;
    fp.eps = eps;
    fp.theta = theta;
    fp.n_crit = n_crit;
    fp.threads = lanes;
    fp.backend = backend;
    fp.boards = boards;
    // Fresh engine + fresh device per run: no cross-run device state.
    auto engine = core::make_engine("grape-tree", fp);
    util::Stopwatch watch;
    engine->compute(r.pset);
    r.wall_s = watch.elapsed();
    r.walk_cpu_s = engine->stats().seconds_walk;
    r.kernel_cpu_s = engine->stats().seconds_kernel;
    return r;
  };

  std::vector<Row> rows;
  bool identical = true;
  for (const grape::BackendKind backend : backends) {
    Row row{backend, run(backend, 1), run(backend, threads)};
    row.identical = same_forces(row.serial.pset, row.parallel.pset);
    identical = identical && row.identical;
    rows.push_back(std::move(row));
  }

  util::Table t({"backend", "threads", "wall s", "walk cpu-s", "kernel cpu-s",
                 "speedup", "bitwise"});
  for (const Row& row : rows) {
    const std::string name(grape::backend_name(row.backend));
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.2f", row.speedup());
    t.add_row({name, "1", util::sci(row.serial.wall_s),
               util::sci(row.serial.walk_cpu_s),
               util::sci(row.serial.kernel_cpu_s), "1.00", "ref"});
    t.add_row({name, std::to_string(threads), util::sci(row.parallel.wall_s),
               util::sci(row.parallel.walk_cpu_s),
               util::sci(row.parallel.kernel_cpu_s), speedup,
               row.identical ? "yes" : "NO"});
  }
  t.print();

  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    if (f == nullptr) {
      std::printf("ERROR: cannot write %s\n", json.c_str());
      return EXIT_FAILURE;
    }
    std::fprintf(f, "[\n");
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const Row& row = rows[k];
      std::fprintf(
          f,
          "  {\"run\": {\"n\": %zu, \"theta\": %g, \"n_crit\": %u, "
          "\"threads\": %u, \"backend\": \"%s\", \"boards\": %u},\n"
          "   \"serial\": {\"wall_s\": %.6g, \"walk_cpu_s\": %.6g, "
          "\"kernel_cpu_s\": %.6g},\n"
          "   \"parallel\": {\"wall_s\": %.6g, \"walk_cpu_s\": %.6g, "
          "\"kernel_cpu_s\": %.6g},\n"
          "   \"speedup\": %.4g, \"bitwise_identical\": %s}%s\n",
          n, theta, n_crit, threads,
          std::string(grape::backend_name(row.backend)).c_str(),
          boards != 0 ? boards
                      : static_cast<std::uint32_t>(
                            grape::SystemConfig::paper_system().boards),
          row.serial.wall_s, row.serial.walk_cpu_s, row.serial.kernel_cpu_s,
          row.parallel.wall_s, row.parallel.walk_cpu_s,
          row.parallel.kernel_cpu_s, row.speedup(),
          row.identical ? "true" : "false", k + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %s\n", json.c_str());
  }

  if (!identical) {
    std::printf("ERROR: forces diverged between 1 and %u threads\n", threads);
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
