// Using the raw g5_* driver API exactly the way user code drove the real
// GRAPE-5 library: open the device, set the coordinate window and
// softening, upload a j-set into the particle memory, then loop i-batches
// through g5_set_xi / g5_run / g5_get_force and compare against a host
// double-precision sum.
//
//   ./grape_driver_demo [--n 2048] [--eps 0.02]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "grape/driver.hpp"
#include "grape/host_reference.hpp"
#include "ic/plummer.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace g5;
  using grape::Vec3d;
  util::Options opt(argc, argv);

  const auto n = static_cast<std::size_t>(opt.get_int("n", 2048));
  const double eps = opt.get_double("eps", 0.02);

  ic::PlummerConfig pc;
  pc.n = n;
  pc.seed = 123;
  const model::ParticleSet pset = ic::make_plummer(pc);

  // ---- the historical call sequence -----------------------------------
  grape::g5_open();
  std::printf("g5_open: %d pipelines, jmem %d particles\n",
              grape::g5_get_number_of_pipelines(), grape::g5_get_jmemsize());

  // The third argument is the most mass one g5_run streams: the whole set.
  double total_mass = 0.0;
  for (const double m : pset.mass()) total_mass += m;
  grape::g5_set_range(-20.0, 20.0, total_mass);
  grape::g5_set_eps_to_all(eps);

  // Pack positions into the double[3] layout of the original API.
  std::vector<double> xj(3 * n), mj(n);
  for (std::size_t j = 0; j < n; ++j) {
    xj[3 * j + 0] = pset.pos()[j].x;
    xj[3 * j + 1] = pset.pos()[j].y;
    xj[3 * j + 2] = pset.pos()[j].z;
    mj[j] = pset.mass()[j];
  }
  grape::g5_set_n(static_cast<int>(n));
  grape::g5_set_xmj(0, static_cast<int>(n),
                    reinterpret_cast<const double(*)[3]>(xj.data()),
                    mj.data());

  std::vector<Vec3d> acc(n);
  std::vector<double> pot(n);
  const int npipe = grape::g5_get_number_of_pipelines();
  std::vector<double> ab(3 * static_cast<std::size_t>(npipe));
  std::vector<double> pb(static_cast<std::size_t>(npipe));
  for (std::size_t off = 0; off < n; off += static_cast<std::size_t>(npipe)) {
    const int ni = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(npipe), n - off));
    grape::g5_set_xi(ni, reinterpret_cast<const double(*)[3]>(&xj[3 * off]));
    grape::g5_run();
    grape::g5_get_force(ni, reinterpret_cast<double(*)[3]>(ab.data()),
                        pb.data());
    for (int i = 0; i < ni; ++i) {
      acc[off + static_cast<std::size_t>(i)] =
          Vec3d{ab[3 * i], ab[3 * i + 1], ab[3 * i + 2]};
      pot[off + static_cast<std::size_t>(i)] = pb[static_cast<std::size_t>(i)];
    }
  }

  const auto& account = grape::g5_device().system().account();
  std::printf("ran %llu interactions in %llu force calls; "
              "modeled hardware time %.3f ms, emulation %.3f s\n",
              static_cast<unsigned long long>(account.interactions),
              static_cast<unsigned long long>(account.force_calls),
              account.modeled_total() * 1e3, account.emulation_wall);
  grape::g5_close();

  // ---- host comparison -------------------------------------------------
  std::vector<Vec3d> acc_ref(n);
  std::vector<double> pot_ref(n);
  grape::host_forces_on_targets(pset.pos(), pset.pos(), pset.mass(), eps,
                                acc_ref, pot_ref);

  util::RunningStat err;
  for (std::size_t i = 0; i < n; ++i) {
    const double ref = acc_ref[i].norm();
    if (ref > 0.0) err.add((acc[i] - acc_ref[i]).norm() / ref);
  }
  std::printf("acceleration error vs 64-bit host: rms %.3e, max %.3e\n",
              err.rms(), err.max());
  std::printf("(the G5 pipeline's pairwise error is ~0.3%%; whole-force "
              "errors partially average out over the %zu sources)\n", n);
  return 0;
}
