// E5 — Section 2: "The theoretical peak speed of the GRAPE-5 system is
// 109.44 Gflops. Total number of pipeline processors is 32. Each processor
// pipeline operates 38 operations in a clock cycle."
//
// Blocks:
//  (1) the architectural peak from the configuration (pipelines x clock x
//      38) — must print 109.44 Gflops;
//  (2) the timing model's effective rate vs call shape (ni, nj): the VMP
//      partial-fill penalty and the DMA overhead fraction, i.e. how much
//      of peak a direct N^2 call and a treecode group call actually reach;
//  (3) the emulator's own throughput on this machine (measured), for
//      context on bench runtimes.
//
//   ./bench_e5_peak [--nj 8192] [--reps 3]

#include <cstdio>
#include <vector>

#include "grape/cycle_sim.hpp"
#include "grape/driver.hpp"
#include "ic/uniform.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace g5;
  using grape::Vec3d;
  util::Options opt(argc, argv);

  const grape::SystemConfig cfg = grape::SystemConfig::paper_system();
  const grape::TimingModel timing(cfg);

  std::printf("E5: theoretical peak and sustained fraction\n\n");
  util::Table arch({"quantity", "value"});
  arch.add_row({"boards", std::to_string(cfg.boards)});
  arch.add_row({"chips/board", std::to_string(cfg.board.chips)});
  arch.add_row({"pipelines", std::to_string(cfg.total_pipelines())});
  arch.add_row({"pipeline clock", "90 MHz"});
  arch.add_row({"memory clock", "15 MHz"});
  arch.add_row({"VMP factor", std::to_string(cfg.board.vmp_factor)});
  arch.add_row({"flops/interaction", "38"});
  arch.add_row({"peak interaction rate",
                util::sci(cfg.peak_interaction_rate()) + " /s"});
  arch.add_row({"theoretical peak", util::human_flops(cfg.peak_flops())});
  arch.print();
  std::printf("(paper: 109.44 Gflops)\n\n");

  std::printf("modeled sustained fraction vs call shape:\n");
  util::Table t({"ni", "nj", "compute s", "dma s", "eff. rate",
                 "fraction of peak"});
  const std::size_t shapes[][2] = {
      {96, 8192},   {192, 8192},   {200, 8192},  {2000, 16384},
      {2000, 2000}, {8192, 8192},  {131072, 131072}};
  for (const auto& shape : shapes) {
    const std::size_t ni = shape[0], nj = shape[1];
    const auto call = timing.force_call(ni, nj, true);
    const double inter = static_cast<double>(ni) * static_cast<double>(nj);
    const double rate = inter / call.total();
    char c0[16], c1[16], c2[16], c3[16], c4[24], c5[12];
    std::snprintf(c0, sizeof(c0), "%zu", ni);
    std::snprintf(c1, sizeof(c1), "%zu", nj);
    std::snprintf(c2, sizeof(c2), "%.2e", call.compute);
    std::snprintf(c3, sizeof(c3), "%.2e",
                  call.dma_i + call.dma_j + call.dma_result);
    std::snprintf(c4, sizeof(c4), "%s",
                  util::human_flops(rate * grape::kFlopsPerInteraction).c_str());
    std::snprintf(c5, sizeof(c5), "%.1f%%",
                  100.0 * rate / cfg.peak_interaction_rate());
    t.add_row({c0, c1, c2, c3, c4, c5});
  }
  t.print();
  std::printf("(ni = 96k multiples fill every virtual pipeline slot; the "
              "treecode's ni ~ n_g = 2000\nagainst nj ~ 13000 lists runs "
              "the hardware near its sustained fraction)\n\n");

  // Cross-check: the discrete-event cycle simulation vs the closed form.
  std::printf("cycle simulation vs analytic compute model:\n");
  util::Table cs({"ni", "nj", "analytic s", "simulated s", "delta",
                  "sim utilization"});
  for (const auto& shape : shapes) {
    const std::size_t ni = shape[0], nj = shape[1];
    const double analytic =
        timing.board_compute_time(ni, timing.j_per_board(nj));
    const auto sim = grape::simulate_system_call(cfg, ni, nj);
    char c0[16], c1[16], c2[16], c3[16], c4[12], c5[12];
    std::snprintf(c0, sizeof(c0), "%zu", ni);
    std::snprintf(c1, sizeof(c1), "%zu", nj);
    std::snprintf(c2, sizeof(c2), "%.3e", analytic);
    std::snprintf(c3, sizeof(c3), "%.3e", sim.seconds);
    std::snprintf(c4, sizeof(c4), "%+.2f%%",
                  100.0 * (sim.seconds - analytic) /
                      (analytic > 0.0 ? analytic : 1.0));
    std::snprintf(c5, sizeof(c5), "%.1f%%", 100.0 * sim.utilization);
    cs.add_row({c0, c1, c2, c3, c4, c5});
  }
  cs.print();
  std::printf("(delta = pipeline fill/drain latency the closed form "
              "ignores; negligible at treecode\nlist lengths)\n\n");

  // ---- emulator throughput on this machine ----------------------------
  const auto nj = static_cast<std::size_t>(opt.get_int("nj", 8192));
  const auto reps = static_cast<std::size_t>(opt.get_int("reps", 3));
  const auto src = ic::make_uniform_cube(nj, -1.0, 1.0, 1.0, 5);
  grape::Grape5Device device(cfg);
  device.set_range(-2.0, 2.0, 1.0);  // the cube's mass, all in each call
  device.set_eps(0.01);
  device.set_j(src.pos(), src.mass());
  const std::size_t ni = 512;
  std::vector<Vec3d> acc(ni);
  std::vector<double> pot(ni);
  util::Stopwatch watch;
  for (std::size_t r = 0; r < reps; ++r) {
    device.compute_forces(std::span<const Vec3d>(src.pos().data(), ni), acc,
                          pot);
  }
  const double wall = watch.elapsed();
  const double inter = static_cast<double>(reps) * static_cast<double>(ni) *
                       static_cast<double>(nj);
  std::printf("emulator throughput on this machine (measured): %.2f M "
              "interactions/s\n-> the emulator is ~%.0fx slower than the "
              "modeled silicon, hence the scaled bench sizes.\n",
              inter / wall / 1e6,
              cfg.peak_interaction_rate() / (inter / wall));
  return 0;
}
