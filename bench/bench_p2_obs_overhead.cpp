// P2 — observability overhead on the instrumented hot paths.
//
// The obs cost contract (src/obs/span.hpp): with the master switch off a
// G5_OBS_SPAN is one relaxed atomic load, so instrumentation-off runs
// must be indistinguishable from the seed; with the switch on (phase
// accumulation, no tracing) the end-to-end overhead of a force
// computation must stay under a few percent. This harness measures both
// on TreeEngine (host kernel, modified algorithm) force phases over a Plummer
// sphere and FAILS (exit 1) when the switched-on overhead exceeds the
// budget — it is the regression gate for anyone adding spans to a hot
// loop. The disabled-span micro cost is also reported in ns.
//
// A third configuration runs with the obs::Telemetry sampler live at
// its default 1 s period (status file + flight recorder armed) — the
// acceptance gate for leaving telemetry on during paper-scale runs.
//
//   ./bench_p2_obs_overhead [--n 16384] [--reps 6] [--budget-pct 3.0]
//                           [--theta 0.75] [--ncrit 256]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engines.hpp"
#include "ic/plummer.hpp"
#include "obs/obs.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace g5;
  util::Options opt(argc, argv);
  const auto n = static_cast<std::size_t>(opt.get_int("n", 16384));
  const int reps = std::max(3, static_cast<int>(opt.get_int("reps", 6)));
  const double budget_pct = opt.get_double("budget-pct", 3.0);
  const double theta = opt.get_double("theta", 0.75);
  const auto n_crit = static_cast<std::uint32_t>(opt.get_int("ncrit", 256));

  ic::PlummerConfig pc;
  pc.n = n;
  pc.seed = 2026;
  auto pset = ic::make_plummer(pc);

  core::ForceParams fp;
  fp.theta = theta;
  fp.n_crit = n_crit;
  core::TreeEngine engine(fp, core::TreeEngine::Mode::Modified);

  // Best-of-reps force-phase seconds under the given switch state. Best
  // (not mean) is the right statistic for an overhead bound: scheduler
  // noise only ever adds time.
  auto measure = [&](bool on) {
    obs::set_enabled(on);
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      util::Stopwatch watch;
      engine.compute(pset);
      best = std::min(best, watch.elapsed());
    }
    obs::set_enabled(false);
    return best;
  };

  engine.compute(pset);  // warm up pool, tree and caches
  const double off_s = measure(false);
  const double on_s = measure(true);
  const double overhead_pct = (on_s / off_s - 1.0) * 100.0;

  // Spans on + the background sampler live at the default period,
  // exporting a status file and keeping the flight recorder armed —
  // the telemetry configuration a long run would actually use.
  const std::string status_path = "bench_p2_status.json";
  obs::set_enabled(true);
  double sampled_s = 1e300;
  {
    obs::TelemetryConfig tc;
    tc.status_path = status_path;
    obs::Telemetry sampler(tc);
    for (int r = 0; r < reps; ++r) {
      util::Stopwatch watch;
      engine.compute(pset);
      sampled_s = std::min(sampled_s, watch.elapsed());
    }
    sampler.stop();
  }
  obs::set_enabled(false);
  obs::FlightRecorder::instance().disarm();
  std::remove(status_path.c_str());
  const double sampled_pct = (sampled_s / off_s - 1.0) * 100.0;

  // Disabled-span micro cost: the per-span price every hot path pays
  // when nothing is observing.
  constexpr int kSpans = 1 << 20;
  obs::set_enabled(false);
  util::Stopwatch micro;
  for (int i = 0; i < kSpans; ++i) {
    G5_OBS_SPAN("noop", "bench");
  }
  const double ns_per_span = micro.elapsed() / kSpans * 1e9;

  std::printf("P2: obs overhead, N=%zu, best of %d force phases\n\n", n,
              reps);
  util::Table t({"configuration", "force phase", "overhead"});
  char c1[32], c2[32];
  std::snprintf(c1, sizeof(c1), "%.4f s", off_s);
  t.add_row({"instrumentation off", c1, "(baseline)"});
  std::snprintf(c1, sizeof(c1), "%.4f s", on_s);
  std::snprintf(c2, sizeof(c2), "%+.2f %%", overhead_pct);
  t.add_row({"spans + phase accumulation on", c1, c2});
  std::snprintf(c1, sizeof(c1), "%.4f s", sampled_s);
  std::snprintf(c2, sizeof(c2), "%+.2f %%", sampled_pct);
  t.add_row({"spans on + telemetry sampler live", c1, c2});
  std::snprintf(c1, sizeof(c1), "%.1f ns", ns_per_span);
  t.add_row({"disabled G5_OBS_SPAN (micro)", c1, "-"});
  t.print();

  if (overhead_pct > budget_pct) {
    std::printf("\nFAIL: switched-on overhead %.2f %% exceeds the %.1f %% "
                "budget\n",
                overhead_pct, budget_pct);
    return 1;
  }
  if (sampled_pct > budget_pct) {
    std::printf("\nFAIL: sampler-live overhead %.2f %% exceeds the %.1f %% "
                "budget\n",
                sampled_pct, budget_pct);
    return 1;
  }
  std::printf("\nOK: within the %.1f %% budget\n", budget_pct);
  return 0;
}
