// g5run — command-line simulation runner over the library's public API.
//
// Pick an initial condition, a force engine and run parameters; get a
// summary table, optional snapshots and optional post-run analysis. The
// one binary a downstream user needs to try the system on their problem.
//
// Usage:
//   g5run --ic plummer|hernquist|cosmo|collision|cold|uniform [ic options]
//         --engine grape-tree|grape-direct|host-tree|host-tree-modified|
//                  host-direct
//         [--n 8192] [--steps 100] [--dt 0.01] [--eps 0.02] [--theta 0.75]
//         [--ncrit 256] [--mac edge|bmax] [--quadrupole]
//         [--threads 0]    (host lanes for the tree build and the walk +
//                           evaluate phase; 0 = G5_THREADS, else every
//                           core. Results are bitwise-identical for any
//                           count)
//         [--backend bit-exact|native]
//                          (grape engines: pipeline arithmetic. bit-exact =
//                           the bit-level GRAPE-5 datapath, the default and
//                           what every golden number refers to; native =
//                           plain double on the same quantized coordinates,
//                           ~3x faster emulation, codec error ~ 0)
//         [--boards B]     (grape engines: processor boards in the emulated
//                           machine; default 2 = the paper's configuration.
//                           j-particles block-shard across boards and the
//                           partial sums merge exactly, so forces are
//                           bitwise-identical for every B — docs/scaling.md)
//         [--snapshots K --snapshot-prefix out]
//         [--analyze] [--selftest] [--seed 42]
//         [--out final.g5snap] [--tipsy final.tipsy]
//         [--resume earlier.g5snap]   (continue from a saved snapshot)
//         [--stats-csv run.csv]       (per-step time series)
//
// Observability (docs/observability.md):
//   --timing             print the kernel ISA clone this host runs, the
//                        measured per-phase table and the
//                        measured-vs-modeled Section 5 breakdown
//   --timing-json FILE   write the same breakdown as JSON (implies --timing
//                        accounting; BENCH_obs.json uses this format)
//   --trace FILE         write a Chrome trace (chrome://tracing, Perfetto)
//   --metrics FILE       write per-step metrics as JSON lines
//   --report FILE        write the paper-claims artifact (interactions
//                        per particle per step, the paper's mean list
//                        length / force-error percentiles / energy
//                        drift vs the SC'99 numbers; schema
//                        tools/schema/report.schema.json) and print the
//                        comparison table; runs the force-error probe
//                        (no codec verdict for the host engines)
//   --probe-every K      run the sampling force-error probe every K steps
//                        (default: with --report, once on the last step)
//   --probe-samples M    particles the probe re-evaluates exactly (64)
//   --probe-seed S       probe sampling seed (deterministic subsets)
//
// Live telemetry & post-mortem (docs/observability.md):
//   --status-file FILE   background sampler rewrites FILE atomically every
//                        --status-period ms with the g5.status.v1 JSON
//                        (heartbeat, ETA, device state, flight recorder,
//                        full metric registry)
//   --status-period MS   sampler period in milliseconds (default 1000)
//   --prom-file FILE     sampler also rewrites FILE in Prometheus text
//                        exposition format (the full g5.* catalog)
//   --live-port P        serve /status (JSON) and /metrics (Prometheus)
//                        on 127.0.0.1:P (P=0 picks a free port)
//   --postmortem FILE    install async-signal-safe crash handlers that
//                        dump the flight recorder to FILE (g5.postmortem.v1)
//                        on SIGSEGV/SIGABRT/SIGTERM/std::terminate
//   --debug-crash S      abort() from the step hook at step S (exercises
//                        the post-mortem path; used by tests/CI)
//
// Cosmological runs (--ic cosmo) integrate z=24 -> 0 with a log-a step
// schedule (or --comoving for the comoving-coordinate integrator) and set
// dt/eps from the lattice automatically.
//
// Initial-condition options: --virial (cold), --pericenter and
// --mass-ratio (collision), --grid, --omega-m, --omega-l, --hubble,
// --sigma8 and --z-start (cosmo). Any other flag not named here is an
// error: g5run exits 1 and names it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis.hpp"
#include "core/comoving.hpp"
#include "core/engines.hpp"
#include "core/perf.hpp"
#include "core/simulation.hpp"
#include "core/snapshot.hpp"
#include "grape/selftest.hpp"
#include "obs/obs.hpp"
#include "ic/galaxy.hpp"
#include "ic/hernquist.hpp"
#include "ic/plummer.hpp"
#include "ic/uniform.hpp"
#include "ic/zeldovich.hpp"
#include "math/rng.hpp"
#include "model/units.hpp"
#include "util/http.hpp"
#include "util/isa.hpp"
#include "util/log.hpp"
#include "util/options.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/thread.hpp"

namespace {

using namespace g5;

/// Every flag g5run reads, each between spaces; main() rejects the rest.
constexpr std::string_view kKnownOptions =
    " analyze backend boards comoving debug-crash dt engine eps grid help"
    " hubble ic live-port log-every mac mass-ratio metrics n ncrit omega-l"
    " omega-m out pericenter postmortem probe-every probe-samples probe-seed"
    " prom-file quadrupole report resume seed selftest sigma8"
    " snapshot-prefix snapshots stats-csv status-file status-period steps"
    " theta threads timing timing-json tipsy trace virial z-start ";

/// Throws naming the first flag g5run does not know: a misspelt or
/// removed flag would otherwise be silently dropped.
void reject_unknown_options(const util::Options& opt) {
  for (const std::string& key : opt.keys()) {
    if (key.find(' ') != std::string::npos ||
        kKnownOptions.find(" " + key + " ") == std::string_view::npos) {
      throw std::invalid_argument("unknown option --" + key +
                                  " (see the header of tools/g5run.cpp)");
    }
  }
}

struct Prepared {
  model::ParticleSet pset;
  double suggested_eps = 0.02;
  double suggested_dt = 0.01;
  bool cosmological = false;
  ic::CosmologicalSphereConfig cosmo_cfg;
  ic::CosmologicalSphereResult cosmo_meta;
};

Prepared prepare_ic(const util::Options& opt) {
  Prepared out;
  // Resuming from a snapshot bypasses IC generation entirely.
  if (opt.has("resume")) {
    const std::string path = opt.get_string("resume", "");
    const auto header = core::read_snapshot(path, out.pset);
    out.suggested_eps = header.eps > 0.0 ? header.eps : 0.02;
    std::printf("resumed %s: N=%llu t=%g eps=%g\n", path.c_str(),
                static_cast<unsigned long long>(header.count), header.time,
                header.eps);
    return out;
  }
  const std::string kind = opt.get_string("ic", "plummer");
  const auto n = static_cast<std::size_t>(opt.get_int("n", 8192));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 42));

  if (kind == "plummer") {
    ic::PlummerConfig cfg;
    cfg.n = n;
    cfg.seed = seed;
    out.pset = ic::make_plummer(cfg);
    out.suggested_eps = 0.02;
    out.suggested_dt = 0.01;
  } else if (kind == "hernquist") {
    ic::HernquistConfig cfg;
    cfg.n = n;
    cfg.seed = seed;
    out.pset = ic::make_hernquist(cfg);
    out.suggested_eps = 0.02;
    out.suggested_dt = 0.005;  // the cusp is dynamically faster
  } else if (kind == "uniform") {
    out.pset = ic::make_uniform_ball(n, 1.0, 1.0, seed);
    out.suggested_eps = 0.02;
    out.suggested_dt = 0.005;
  } else if (kind == "cold") {
    out.pset = ic::make_uniform_ball(n, 1.0, 1.0, seed);
    math::Rng rng(seed + 1);
    const double sigma =
        std::sqrt(2.0 * opt.get_double("virial", 0.05) * 0.6 / 3.0);
    for (auto& v : out.pset.vel()) {
      v = math::Vec3d{rng.gaussian(0.0, sigma), rng.gaussian(0.0, sigma),
                      rng.gaussian(0.0, sigma)};
    }
    out.suggested_eps = 0.02;
    out.suggested_dt = 0.005;
  } else if (kind == "collision") {
    ic::GalaxyCollisionConfig cfg;
    cfg.n_per_galaxy = n / 2;
    cfg.seed = seed;
    cfg.pericenter = opt.get_double("pericenter", 1.0);
    cfg.mass_ratio = opt.get_double("mass-ratio", 1.0);
    out.pset = std::move(ic::make_galaxy_collision(cfg).particles);
    out.suggested_eps = 0.05;
    out.suggested_dt = 0.05;
  } else if (kind == "cosmo") {
    ic::CosmologicalSphereConfig cfg;
    cfg.grid_n = static_cast<std::size_t>(opt.get_int("grid", 16));
    while ((cfg.grid_n & (cfg.grid_n - 1)) != 0) ++cfg.grid_n;
    cfg.seed = seed;
    // Background cosmology: SCDM (the paper) by default, any matter+Lambda
    // model via flags.
    cfg.cosmo.omega_m = opt.get_double("omega-m", 1.0);
    cfg.cosmo.omega_l = opt.get_double("omega-l", 0.0);
    cfg.cosmo.h = opt.get_double("hubble", 0.5);
    cfg.power.sigma8 = opt.get_double("sigma8", 0.67);
    cfg.z_start = opt.get_double("z-start", 24.0);
    out.cosmo_cfg = cfg;
    out.cosmo_meta = ic::make_cosmological_sphere(cfg);
    out.pset = out.cosmo_meta.particles;
    const double G = model::gravitational_constant();
    for (auto& m : out.pset.mass()) m *= G;
    out.suggested_eps =
        0.05 * out.cosmo_meta.box_size / static_cast<double>(cfg.grid_n);
    out.cosmological = true;
  } else {
    throw std::invalid_argument(
        "unknown --ic '" + kind +
        "' (plummer, hernquist, uniform, cold, collision, cosmo)");
  }
  return out;
}

void print_analysis(const model::ParticleSet& pset) {
  const auto lag = core::lagrangian_radii(pset, {0.1, 0.5, 0.9});
  std::printf("\nanalysis:\n");
  util::Table t({"quantity", "value"});
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g / %.4g / %.4g", lag[0], lag[1],
                lag[2]);
  t.add_row({"Lagrangian radii (10/50/90%)", buf});
  std::snprintf(buf, sizeof(buf), "%.4g",
                core::mean_nearest_neighbour(pset, 200, 7));
  t.add_row({"mean nearest-neighbour distance", buf});
  t.print();

  core::CorrelationConfig cc;
  cc.r_min = lag[1] * 0.05;
  cc.r_max = lag[2];
  cc.bins = 10;
  const auto xi = core::correlation_function(pset, cc);
  std::printf("\ntwo-point correlation xi(r) (sample R=%.3g, %zu "
              "particles):\n", xi.sample_radius, xi.n_used);
  util::Table xt({"r range", "pairs", "xi"});
  for (std::size_t b = 0; b < xi.xi.size(); ++b) {
    char c0[48], c1[20], c2[16];
    std::snprintf(c0, sizeof(c0), "%.3g - %.3g", xi.r_lo[b], xi.r_hi[b]);
    std::snprintf(c1, sizeof(c1), "%llu",
                  static_cast<unsigned long long>(xi.pairs[b]));
    std::snprintf(c2, sizeof(c2), "%+.3f", xi.xi[b]);
    xt.add_row({c0, c1, c2});
  }
  xt.print();
}

/// Sum of every measured phase whose path ends in "/<leaf>".
double phase_total(const std::vector<obs::PhaseStat>& report,
                   std::string_view leaf) {
  double total = 0.0;
  for (const auto& p : report) {
    if (p.path.size() > leaf.size() + 1 &&
        p.path.compare(p.path.size() - leaf.size(), leaf.size(), leaf) == 0 &&
        p.path[p.path.size() - leaf.size() - 1] == '/') {
      total += p.total_s;
    }
  }
  return total;
}

/// The measured side of the Section 5 story: the per-phase wall/CPU table
/// from the span accumulators, then measured vs modeled rows (modeled =
/// HostCostModel + TimingModel, the same models bench_e1_section5 checks
/// against the paper's published row). See docs/observability.md.
void print_measured_timing(const core::SimulationSummary& summary,
                           const core::ForceParams& fp, std::size_t n) {
  const auto report = obs::phase_report();
  std::printf("\nkernel ISA: %s (the G5_ISA_CLONES clone this host runs)\n",
              util::kernel_isa());
  std::printf("\nmeasured phases (wall seconds; .cpu rows are per-lane CPU "
              "seconds summed over lanes):\n");
  util::Table pt({"phase", "count", "total s", "mean s"});
  for (const auto& p : report) {
    char c1[24], c2[24], c3[24];
    std::snprintf(c1, sizeof(c1), "%llu",
                  static_cast<unsigned long long>(p.count));
    std::snprintf(c2, sizeof(c2), "%.4g", p.total_s);
    std::snprintf(c3, sizeof(c3), "%.4g", p.mean_s());
    pt.add_row({p.path, c1, c2, c3});
  }
  pt.print();

  core::HostCostModel host;
  host.threads = util::resolve_thread_count(fp.threads);
  const auto& es = summary.engine;
  const double steps = static_cast<double>(summary.steps);
  const double dn = static_cast<double>(n);
  const double modeled_build = 1e-6 * host.per_particle_build_us * dn * steps;
  const double modeled_walk =
      1e-6 * (host.per_list_entry_us *
                  static_cast<double>(es.walk.list_entries) +
              host.per_group_us * static_cast<double>(es.groups));
  const double modeled_step = 1e-6 * host.per_particle_step_us * dn * steps;

  std::printf("\nmeasured vs modeled (paper Section 5 breakdown; host model "
              "is the 1999 Alpha, so ratios, not equality, are the point):\n");
  util::Table mt({"phase", "measured s", "modeled s"});
  char m1[24], m2[24];
  auto row = [&](const char* name, double measured, double modeled) {
    std::snprintf(m1, sizeof(m1), "%.4g", measured);
    std::snprintf(m2, sizeof(m2), "%.4g", modeled);
    mt.add_row({name, m1, m2});
  };
  row("tree build", es.seconds_tree_build, modeled_build);
  row("tree walk (CPU s, 1-core model)", es.seconds_walk, modeled_walk);
  row("integrate + bookkeeping", phase_total(report, "integrate"),
      modeled_step);
  if (summary.grape.force_calls > 0) {
    row("GRAPE compute (emulated vs silicon)", summary.grape.emulation_wall,
        summary.grape.modeled_compute);
    row("GRAPE DMA (modeled only)", 0.0,
        summary.grape.modeled_total() - summary.grape.modeled_compute);
    std::snprintf(m1, sizeof(m1), "%.3f", summary.grape.occupancy());
    mt.add_row({"pipeline occupancy (measured)", m1, "-"});
  }
  mt.print();

  core::RunWorkload work;
  work.n_particles = n;
  work.steps = summary.steps;
  work.interactions = es.interactions;
  work.list_entries = es.walk.list_entries;
  work.groups = es.groups;
  const auto pr = core::project_performance(grape::SystemConfig::paper_system(),
                                            host, grape::CostModel{}, work);
  std::printf("\nmodeled on the paper's hardware: host %.4g s + GRAPE %.4g s "
              "= %.4g s total, %.4g Gflops sustained\n",
              pr.host_s, pr.grape_compute_s + pr.grape_dma_s, pr.total_s,
              pr.raw_flops * 1e-9);
}

/// Timing/metrics JSON for regression baselines (BENCH_obs.json): the
/// phase table plus a registry snapshot, one self-contained object.
void write_timing_json(const std::string& path,
                       const core::SimulationSummary& summary,
                       const std::string& engine_name, std::size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  std::fprintf(f,
               "{\n  \"run\": {\"engine\": \"%s\", \"n\": %llu, \"steps\": "
               "%llu, \"wall_s\": %.6g},\n  \"phases\": [",
               engine_name.c_str(), static_cast<unsigned long long>(n),
               static_cast<unsigned long long>(summary.steps),
               summary.wall_seconds);
  bool first = true;
  for (const auto& p : obs::phase_report()) {
    std::fprintf(f,
                 "%s\n    {\"path\": \"%s\", \"count\": %llu, \"total_s\": "
                 "%.6g, \"mean_s\": %.6g}",
                 first ? "" : ",", p.path.c_str(),
                 static_cast<unsigned long long>(p.count), p.total_s,
                 p.mean_s());
    first = false;
  }
  std::fprintf(f, "\n  ],\n  \"metrics\": [");
  first = true;
  for (const auto& s : obs::Registry::instance().snapshot()) {
    if (s.kind == obs::MetricKind::kHistogram) {
      const obs::Histogram::Snapshot& h = s.hist;
      std::fprintf(f,
                   "%s\n    {\"name\": \"%s\", \"type\": \"histogram\", "
                   "\"count\": %llu, \"mean\": %.6g, \"min\": %.6g, "
                   "\"max\": %.6g, \"p50\": %.6g, \"p90\": %.6g, "
                   "\"p99\": %.6g}",
                   first ? "" : ",", s.name.c_str(),
                   static_cast<unsigned long long>(h.count), h.mean(),
                   h.min, h.max, h.quantile(0.50), h.quantile(0.90),
                   h.quantile(0.99));
    } else if (s.is_counter) {
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"type\": \"counter\", "
                   "\"value\": %llu}",
                   first ? "" : ",", s.name.c_str(),
                   static_cast<unsigned long long>(s.count));
    } else {
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"type\": \"gauge\", "
                   "\"value\": %.6g}",
                   first ? "" : ",", s.name.c_str(), s.value);
    }
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// Paper-claims report (--report): the measurable claims of the SC'99
// paper against this run, as one machine-checkable JSON document
// (tools/schema/report.schema.json) plus a printed comparison table.

/// The paper's published figures (Sections 3 and 5).
constexpr double kPaperMeanList = 13431.0;  ///< avg interaction-list length
constexpr double kPaperN = 2159038.0;       ///< particles in the timed run
constexpr double kPaperNcrit = 2000.0;      ///< its group-size bound
constexpr double kTreeBudget = 1e-3;        ///< ~0.1 % tree error (Sec. 3)
constexpr double kCodecBudget = 3e-3;       ///< ~0.3 % pairwise format error

/// The paper's mean list length scaled to this run's (N, n_crit,
/// theta). Model (after Barnes 1990): a shared list is the group's own
/// n_crit members (direct part) plus ~theta^-3 * ln(N / n_crit) cell
/// terms; the cell coefficient is calibrated so the paper's own row
/// (13,431 at N=2,159,038, n_crit=2000, theta=0.75) is reproduced
/// exactly. Clamped to N — a list cannot be longer than the system.
/// The acceptance band on the ratio is 2x (small-N runs sit well below
/// the asymptotic law because their lists saturate at N).
double scaled_paper_list(double n, double n_crit, double theta) {
  if (!(n > n_crit) || !(theta > 0.0)) return n;
  const double paper_theta = 0.75;
  const double cell_coeff =
      (kPaperMeanList - kPaperNcrit) /
      (std::pow(paper_theta, -3.0) * std::log(kPaperN / kPaperNcrit));
  const double scaled =
      n_crit + cell_coeff * std::pow(theta, -3.0) * std::log(n / n_crit);
  return std::min(n, scaled);
}

std::string json_or_null(double v, const char* fmt = "%.6g") {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

void write_report(const std::string& path,
                  const core::SimulationSummary& summary,
                  const std::string& engine_name,
                  const core::ForceParams& fp, std::size_t n) {
  const double dn = static_cast<double>(n);
  const double steps = static_cast<double>(summary.steps);
  // Section 5's definition: interactions per particle per step.
  const double mean_list =
      dn > 0.0 && steps > 0.0
          ? static_cast<double>(summary.engine.interactions) / (dn * steps)
          : 0.0;
  const double expected = scaled_paper_list(dn, fp.n_crit, fp.theta);
  const double ratio = expected > 0.0 ? mean_list / expected : 0.0;
  const bool within_2x = ratio >= 0.5 && ratio <= 2.0;
  const double inter_per_step =
      steps > 0.0 ? static_cast<double>(summary.engine.interactions) / steps
                  : 0.0;
  const bool probed = summary.probe_calls > 0;
  const obs::ProbeResult& pr = summary.probe_last;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tree_p50 = probed ? pr.tree_p50 : nan;
  const double tree_p99 = probed ? pr.tree_p99 : nan;
  // The probe leaves the codec leg NaN for an engine with no GRAPE device.
  const bool codec_probed = probed && !std::isnan(pr.codec_p50);
  const double codec_p50 = codec_probed ? pr.codec_p50 : nan;
  const double codec_p99 = codec_probed ? pr.codec_p99 : nan;
  const double total_p50 = probed ? pr.total_p50 : nan;
  const double total_p99 = probed ? pr.total_p99 : nan;
  const char* tree_ok =
      probed ? (tree_p50 <= kTreeBudget ? "true" : "false") : "null";
  const char* codec_ok =
      codec_probed ? (codec_p50 <= kCodecBudget ? "true" : "false") : "null";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  std::fprintf(
      f,
      "{\n"
      "  \"run\": {\"engine\": \"%s\", \"backend\": \"%s\", \"boards\": %u, "
      "\"n\": %llu, "
      "\"steps\": %llu, \"eps\": %.6g, \"theta\": %.6g, \"n_crit\": %u, "
      "\"wall_s\": %.6g, \"kernel_isa\": \"%s\"},\n"
      "  \"claims\": {\n"
      "    \"mean_list_length\": {\"measured\": %.6g, \"paper\": %.6g, "
      "\"paper_scaled\": %.6g, \"ratio_to_scaled\": %.6g, \"within_2x\": "
      "%s},\n"
      "    \"interactions_per_step\": {\"measured\": %.6g},\n"
      "    \"force_error\": {\"samples\": %u, \"probe_calls\": %llu, "
      "\"tree_p50\": %s, \"tree_p99\": %s, \"codec_p50\": %s, "
      "\"codec_p99\": %s, \"total_p50\": %s, \"total_p99\": %s, "
      "\"tree_budget\": %.6g, \"codec_budget\": %.6g, "
      "\"tree_within_budget\": %s, \"codec_within_budget\": %s},\n"
      "    \"conservation\": {\"energy_drift\": %.6g, "
      "\"momentum_drift\": %.6g}\n"
      "  }\n"
      "}\n",
      engine_name.c_str(),
      std::string(grape::backend_name(fp.backend)).c_str(),
      fp.boards > 0 ? fp.boards
                    : static_cast<unsigned>(
                          grape::SystemConfig::paper_system().boards),
      static_cast<unsigned long long>(n),
      static_cast<unsigned long long>(summary.steps), fp.eps, fp.theta,
      fp.n_crit, summary.wall_seconds, util::kernel_isa(), mean_list,
      kPaperMeanList, expected, ratio, within_2x ? "true" : "false",
      inter_per_step, probed ? pr.samples : 0,
      static_cast<unsigned long long>(summary.probe_calls),
      json_or_null(tree_p50).c_str(), json_or_null(tree_p99).c_str(),
      json_or_null(codec_p50).c_str(), json_or_null(codec_p99).c_str(),
      json_or_null(total_p50).c_str(), json_or_null(total_p99).c_str(),
      kTreeBudget, kCodecBudget, tree_ok, codec_ok, summary.energy_drift,
      summary.momentum_drift.norm());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  std::printf("\npaper claims vs this run (SC'99 Sections 3/5):\n");
  util::Table ct({"claim", "paper", "this run", "verdict"});
  char c1[40], c2[40];
  std::snprintf(c1, sizeof(c1), "%.0f (N=2.16M)", kPaperMeanList);
  std::snprintf(c2, sizeof(c2), "%.1f (scaled %.1f)", mean_list, expected);
  ct.add_row({"interactions per particle per step", c1, c2,
              within_2x ? "within 2x" : "OUTSIDE 2x"});
  std::snprintf(c2, sizeof(c2), "%.4g", inter_per_step);
  ct.add_row({"interactions / step", "-", c2, "-"});
  if (probed) {
    std::snprintf(c1, sizeof(c1), "~%.1f%%", kTreeBudget * 100.0);
    std::snprintf(c2, sizeof(c2), "%.3g%% (p99 %.3g%%)", tree_p50 * 100.0,
                  tree_p99 * 100.0);
    ct.add_row({"tree force error (p50)", c1, c2,
                tree_p50 <= kTreeBudget ? "within budget" : "OVER budget"});
    std::snprintf(c1, sizeof(c1), "~%.1f%%", kCodecBudget * 100.0);
    if (codec_probed) {
      std::snprintf(c2, sizeof(c2), "%.3g%% (p99 %.3g%%)", codec_p50 * 100.0,
                    codec_p99 * 100.0);
      ct.add_row({"codec force error (p50)", c1, c2,
                  codec_p50 <= kCodecBudget ? "within budget" : "OVER budget"});
    } else {
      ct.add_row({"codec force error (p50)", c1, "n/a (no GRAPE in this run)",
                  "-"});
    }
  } else {
    ct.add_row({"force error", "-", "not probed", "-"});
  }
  std::snprintf(c2, sizeof(c2), "%.3g", summary.energy_drift);
  ct.add_row({"relative energy drift", "conserved over 999 steps", c2, "-"});
  ct.print();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::set_current_thread_name("g5-main");
    util::Options opt(argc, argv);
    reject_unknown_options(opt);
    if (opt.has("help")) {
      std::printf("see the header of tools/g5run.cpp for usage\n");
      return 0;
    }

    // Observability surface: any of these flags flips the master switch
    // for the run; without them every span is a single relaxed load.
    const std::string trace_path = opt.get_string("trace", "");
    const std::string metrics_path = opt.get_string("metrics", "");
    const std::string timing_json = opt.get_string("timing-json", "");
    const std::string report_path = opt.get_string("report", "");
    const std::string status_path = opt.get_string("status-file", "");
    const std::string prom_path = opt.get_string("prom-file", "");
    const std::string postmortem_path = opt.get_string("postmortem", "");
    const auto live_port = opt.get_int("live-port", -1);
    const bool live =
        !status_path.empty() || !prom_path.empty() || live_port >= 0;
    const bool timing = opt.get_bool("timing", false) || !timing_json.empty();
    if (timing || !trace_path.empty() || !metrics_path.empty() ||
        !report_path.empty() || live || !postmortem_path.empty()) {
      obs::set_enabled(true);
      obs::reset_phases();
      obs::Registry::instance().reset_values();
    }
    if (!trace_path.empty()) obs::start_trace();

    // Crash post-mortem first, so even IC generation faults get a dump;
    // then the live sampler (its ctor arms the flight recorder) and the
    // loopback HTTP endpoint for `curl`/Prometheus scrapes.
    if (!postmortem_path.empty()) {
      obs::crash::install(postmortem_path);
      obs::FlightRecorder::instance().arm();
    }
    std::optional<obs::Telemetry> telemetry;
    if (live) {
      obs::TelemetryConfig tc;
      tc.period_ms =
          static_cast<std::uint32_t>(opt.get_int("status-period", 1000));
      tc.status_path = status_path;
      tc.prom_path = prom_path;
      telemetry.emplace(tc);
    }
    std::optional<util::HttpListener> http;
    if (live_port >= 0) {
      http.emplace(static_cast<std::uint16_t>(live_port),
                   [](std::string_view path) {
                     util::HttpResponse r;
                     if (path == "/" || path == "/status") {
                       r.content_type = "application/json";
                       r.body = obs::build_status_json();
                     } else if (path == "/metrics") {
                       r.content_type = "text/plain; version=0.0.4";
                       r.body = obs::prometheus_text();
                     } else {
                       r.status = 404;
                       r.body = "not found\n";
                     }
                     return r;
                   });
      std::printf("g5run: live telemetry on http://127.0.0.1:%u/status\n",
                  http->port());
    }

    Prepared ic = prepare_ic(opt);

    core::ForceParams fp;
    fp.eps = opt.get_double("eps", ic.suggested_eps);
    if (!std::isfinite(fp.eps) || fp.eps < 0.0) {
      throw std::invalid_argument("--eps must be finite and >= 0");
    }
    fp.theta = opt.get_double("theta", 0.75);
    fp.n_crit = static_cast<std::uint32_t>(opt.get_int("ncrit", 256));
    fp.quadrupole = opt.get_bool("quadrupole", false);
    fp.threads = static_cast<std::uint32_t>(opt.get_int("threads", 0));
    const std::string mac = opt.get_string("mac", "edge");
    fp.mac = mac == "bmax" ? tree::Mac::Bmax : tree::Mac::Edge;
    const std::string backend = opt.get_string("backend", "bit-exact");
    if (!grape::parse_backend(backend, fp.backend)) {
      throw std::invalid_argument("unknown --backend '" + backend +
                                  "' (bit-exact, native)");
    }
    const auto boards = opt.get_int("boards", 0);
    if (boards < 0) throw std::invalid_argument("--boards must be >= 1");
    fp.boards = static_cast<std::uint32_t>(boards);

    const std::string engine_name = opt.get_string("engine", "grape-tree");
    auto engine = core::make_engine(engine_name, fp);

    // Optional hardware self-test before committing to a run.
    if (opt.get_bool("selftest", false)) {
      if (grape::Grape5Device* device = engine->grape_device()) {
        std::printf("%s", grape::run_selftest(device->system()).str().c_str());
      } else {
        std::printf("--selftest: engine '%s' has no hardware attached\n",
                    engine_name.c_str());
      }
    }

    const auto steps = static_cast<std::uint64_t>(opt.get_int(
        "steps", ic.cosmological ? 48 : 100));

    std::printf(
        "g5run: N=%zu engine=%s backend=%s eps=%g theta=%g n_crit=%u "
        "steps=%llu\n",
        ic.pset.size(), engine->name().data(),
        std::string(grape::backend_name(fp.backend)).c_str(), fp.eps,
        fp.theta, fp.n_crit, static_cast<unsigned long long>(steps));

    core::SimulationSummary summary;
    if (ic.cosmological && opt.get_bool("comoving", false)) {
      if (!metrics_path.empty()) {
        std::fprintf(stderr, "g5run: --metrics is not available for "
                     "--comoving runs (no per-step record); ignoring\n");
      }
      const model::Cosmology cosmo(ic.cosmo_cfg.cosmo);
      core::ComovingSimulation::physical_to_comoving(ic.pset, cosmo,
                                                     ic.cosmo_meta.a_start);
      core::ForceParams cfp = fp;
      cfp.eps = fp.eps / ic.cosmo_meta.a_start;
      engine->set_params(cfp);
      core::ComovingConfig cc;
      cc.cosmo = ic.cosmo_cfg.cosmo;
      cc.a_start = ic.cosmo_meta.a_start;
      cc.steps = steps;
      cc.log_every = static_cast<std::uint64_t>(opt.get_int("log-every", 0));
      core::ComovingSimulation sim(*engine, cc);
      const auto cs = sim.run(ic.pset);
      core::ComovingSimulation::comoving_to_physical(ic.pset, cosmo, 1.0);
      summary.steps = cs.steps;
      summary.wall_seconds = cs.wall_seconds;
      summary.engine = cs.engine;
    } else {
      core::SimulationConfig sc;
      if (ic.cosmological) {
        const model::Cosmology cosmo(ic.cosmo_cfg.cosmo);
        sc.dt_schedule =
            cosmo.log_a_timesteps(ic.cosmo_meta.a_start, 1.0, steps);
      } else {
        sc.dt = opt.get_double("dt", ic.suggested_dt);
        sc.steps = steps;
      }
      sc.log_every = static_cast<std::uint64_t>(opt.get_int("log-every", 0));
      sc.snapshot_every =
          static_cast<std::uint64_t>(opt.get_int("snapshots", 0));
      sc.snapshot_prefix = opt.get_string("snapshot-prefix", "g5run");
      sc.stats_csv = opt.get_string("stats-csv", "");
      sc.metrics_jsonl = metrics_path;
      // The probe defaults to firing once, on the last step, when a
      // report is requested; --probe-every overrides for a time series.
      std::uint64_t probe_default = 0;
      if (!report_path.empty() && steps > 0) probe_default = steps;
      sc.probe_every = static_cast<std::uint64_t>(
          opt.get_int("probe-every", static_cast<int>(probe_default)));
      sc.probe_samples =
          static_cast<std::uint32_t>(opt.get_int("probe-samples", 64));
      sc.probe_seed = static_cast<std::uint64_t>(
          opt.get_int("probe-seed", 0x5eed));
      core::Simulation sim(*engine, sc);
      // Deliberate mid-step abort for exercising the post-mortem path
      // (the hook runs inside the step span, so the dump names it).
      const auto debug_crash = opt.get_int("debug-crash", 0);
      if (debug_crash > 0) {
        sim.set_step_hook(
            [debug_crash](std::uint64_t s, const model::ParticleSet&) {
              if (s == static_cast<std::uint64_t>(debug_crash)) {
                std::fprintf(stderr,
                             "g5run: --debug-crash aborting at step %llu\n",
                             static_cast<unsigned long long>(s));
                std::abort();
              }
            });
      }
      summary = sim.run(ic.pset);
      if (!metrics_path.empty()) std::printf("wrote %s\n", metrics_path.c_str());
    }

    util::Table t({"quantity", "value"});
    t.add_row({"steps", std::to_string(summary.steps)});
    t.add_row({"interactions",
               util::sci(static_cast<double>(summary.engine.interactions))});
    t.add_row({"interaction lists", std::to_string(summary.engine.groups)});
    t.add_row({"mean entries per list",
               util::sci(summary.engine.walk.mean_list())});
    t.add_row({"wall clock (measured)",
               util::human_seconds(summary.wall_seconds)});
    if (!ic.cosmological) {
      t.add_row({"relative energy drift", util::sci(summary.energy_drift)});
    }
    if (summary.grape.force_calls > 0) {
      t.add_row({"GRAPE-5 time (modeled)",
                 util::human_seconds(summary.grape.modeled_total())});
      t.add_row({"GRAPE-5 sustained (modeled)",
                 util::human_flops(summary.grape.flops() /
                                   summary.grape.modeled_total())});
    }
    t.print();

    if (timing) print_measured_timing(summary, fp, ic.pset.size());
    if (!timing_json.empty()) {
      write_timing_json(timing_json, summary, engine_name, ic.pset.size());
    }
    if (!report_path.empty()) {
      write_report(report_path, summary, engine_name, fp, ic.pset.size());
    }
    if (!trace_path.empty()) {
      obs::stop_trace();
      if (obs::write_trace(trace_path)) {
        std::printf("wrote %s (%zu events, %llu dropped) — open in "
                    "chrome://tracing or https://ui.perfetto.dev\n",
                    trace_path.c_str(), obs::trace_event_count(),
                    static_cast<unsigned long long>(obs::trace_dropped_count()));
      } else {
        std::fprintf(stderr, "g5run: cannot write trace to %s\n",
                     trace_path.c_str());
      }
    }

    if (opt.get_bool("analyze", false)) print_analysis(ic.pset);

    // Optional snapshot exports of the final state.
    if (opt.has("out")) {
      const std::string out_path = opt.get_string("out", "final.g5snap");
      core::write_snapshot(out_path, ic.pset, 0.0, fp.eps);
      std::printf("wrote %s\n", out_path.c_str());
    }
    if (opt.has("tipsy")) {
      const std::string out_path = opt.get_string("tipsy", "final.tipsy");
      core::write_snapshot_tipsy(out_path, ic.pset, 0.0, fp.eps);
      std::printf("wrote %s (TIPSY dark-only)\n", out_path.c_str());
    }
    // Orderly telemetry shutdown: one final sample after the run so the
    // exported files show the finished state, then close the endpoint.
    if (telemetry) {
      telemetry->stop();
      if (!status_path.empty()) std::printf("wrote %s\n", status_path.c_str());
      if (!prom_path.empty()) std::printf("wrote %s\n", prom_path.c_str());
    }
    if (http) http->stop();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "g5run: %s\n", e.what());
    return 1;
  }
}
