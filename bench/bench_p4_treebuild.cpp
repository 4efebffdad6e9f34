// P4 — Morton-ordered tree build scaling (build phase only).
//
// The paper's host built the tree serially on one Alpha core; at the
// paper's N = 2,159,038 the sort + node construction is the dominant
// host phase once the force loop is off-loaded. This harness times
// BhTree::build alone over an N x threads sweep: with no pool (the
// build's chunks in order on the calling thread) and on pools of 1, 2,
// 4, ... lanes, and verifies every pooled tree is bitwise-identical
// (nodes, keys, permutation) to the no-pool one.
//
//   ./bench_p4_treebuild [--n 65536,524288,2159038] [--maxthreads 0 (auto)]
//                        [--reps 5] [--leafmax 8] [--json out.json]
//
// Timings are the median and p90 over --reps builds. JSON: a leading
// {"host": {nproc, compiler, build_type, reps}} object, then rows
// {"n", "threads", "build_ms" (the median), "p90_ms", "speedup",
// "bitwise_identical"}; threads = 0 is the no-pool build, which the
// speedups divide.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ic/uniform.hpp"
#include "tree/tree.hpp"
#include "util/options.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace g5;

std::vector<std::size_t> parse_sizes(const std::string& spec) {
  std::vector<std::size_t> out;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    out.push_back(static_cast<std::size_t>(
        std::strtoull(spec.substr(start, comma - start).c_str(), nullptr, 10)));
    start = comma + 1;
  }
  return out;
}

bool trees_identical(const tree::BhTree& a, const tree::BhTree& b) {
  if (a.node_count() != b.node_count() || a.keys() != b.keys() ||
      a.original_index() != b.original_index() ||
      a.sorted_pos() != b.sorted_pos() ||
      a.sorted_mass() != b.sorted_mass() ||
      a.max_depth_reached() != b.max_depth_reached()) {
    return false;
  }
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    const tree::Node& na = a.node(i);
    const tree::Node& nb = b.node(i);
    bool same = na.first == nb.first && na.count == nb.count &&
                na.parent == nb.parent && na.center == nb.center &&
                na.half_size == nb.half_size && na.com == nb.com &&
                na.mass == nb.mass && na.bradius == nb.bradius &&
                na.depth == nb.depth && na.leaf == nb.leaf;
    for (unsigned oct = 0; oct < 8; ++oct) {
      same = same && na.child[oct] == nb.child[oct];
    }
    if (!same) return false;
  }
  return true;
}

/// Median and p90 (nearest rank) of a sample.
struct Spread {
  double median = 0.0;
  double p90 = 0.0;
};

Spread spread(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  const std::size_t k = ms.size();
  const std::size_t p90_rank = (9 * k + 9) / 10;  // ceil(0.9 k)
  return {k % 2 == 1 ? ms[k / 2] : 0.5 * (ms[k / 2 - 1] + ms[k / 2]),
          ms[p90_rank - 1]};
}

struct Row {
  std::size_t n = 0;
  unsigned threads = 0;  ///< 0 = no pool
  Spread build_ms;
  double speedup = 1.0;
  bool identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const auto sizes =
      parse_sizes(opt.get_string("n", "65536,524288,2159038"));
  auto max_threads = static_cast<unsigned>(opt.get_int("maxthreads", 0));
  if (max_threads == 0) max_threads = util::resolve_thread_count();
  const auto reps = static_cast<int>(std::max<std::int64_t>(
      1, opt.get_int("reps", 5)));
  const auto leaf_max = static_cast<std::uint32_t>(opt.get_int("leafmax", 8));
  const std::string json_path = opt.get_string("json", "");

  std::printf("P4: tree build, N in {");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%s%zu", i ? ", " : "", sizes[i]);
  }
  std::printf("}, up to %u threads, %d reps\n\n", max_threads, reps);

  std::vector<Row> rows;
  bool all_identical = true;

  for (const std::size_t n : sizes) {
    const auto pset = ic::make_uniform_ball(n, 1.0, 1.0, 101);
    tree::TreeBuildConfig cfg;
    cfg.leaf_max = leaf_max;

    auto timed_build = [&](tree::BhTree& tree,
                           util::ThreadPool* pool) -> Spread {
      std::vector<double> ms;
      for (int rep = 0; rep < reps; ++rep) {
        util::Stopwatch watch;
        tree.build(pset, cfg, pool);
        ms.push_back(watch.elapsed() * 1e3);
      }
      return spread(std::move(ms));
    };
    auto add_row = [&](util::Table& t, const std::string& label,
                       const Row& row, const char* bitwise) {
      char med[64], p90[64], sp[64];
      std::snprintf(med, sizeof med, "%.2f", row.build_ms.median);
      std::snprintf(p90, sizeof p90, "%.2f", row.build_ms.p90);
      std::snprintf(sp, sizeof sp, "%.2f", row.speedup);
      t.add_row({label, med, p90, sp, bitwise});
      rows.push_back(row);
    };

    util::Table t({"threads", "median ms", "p90 ms", "speedup", "bitwise"});
    tree::BhTree no_pool;
    const Spread ref = timed_build(no_pool, nullptr);
    add_row(t, "no pool", Row{n, 0, ref, 1.0, true}, "ref");

    for (unsigned threads = 1; threads <= max_threads; threads *= 2) {
      util::ThreadPool pool(threads);
      tree::BhTree pooled;
      const Spread ms = timed_build(pooled, &pool);
      const bool identical = trees_identical(no_pool, pooled);
      all_identical = all_identical && identical;
      add_row(t, std::to_string(threads),
              Row{n, threads, ms, ref.median / ms.median, identical},
              identical ? "yes" : "NO");
    }
    std::printf("N = %zu (no pool %.2f ms, %zu nodes, depth %d)\n", n,
                ref.median, no_pool.node_count(),
                no_pool.max_depth_reached());
    t.print();
    std::printf("\n");
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::printf("ERROR: cannot write %s\n", json_path.c_str());
      return EXIT_FAILURE;
    }
    std::fprintf(f,
                 "[\n  {\"host\": {\"nproc\": %u, \"compiler\": \"%s\", "
                 "\"build_type\": \"%s\", \"reps\": %d}},\n",
                 std::thread::hardware_concurrency(), G5_BENCH_COMPILER,
                 G5_BENCH_BUILD_TYPE, reps);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "  {\"n\": %zu, \"threads\": %u, \"build_ms\": %.3f, "
                   "\"p90_ms\": %.3f, \"speedup\": %.3f, "
                   "\"bitwise_identical\": %s}%s\n",
                   r.n, r.threads, r.build_ms.median, r.build_ms.p90,
                   r.speedup, r.identical ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  std::printf(
      "median/p90 over %d builds. The no-pool row runs the build's chunks"
      "\nin order on the calling thread; speedup = its median / the row's."
      "\nbitwise = nodes/keys/permutation identical to the no-pool tree.\n",
      reps);
  if (!all_identical) {
    std::printf("ERROR: a pooled build diverged from the no-pool tree\n");
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
