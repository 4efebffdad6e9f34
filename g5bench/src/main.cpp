// g5bench: the repository benchmark.
//
//   g5bench --workload NAME --seed N --seconds S --trace 0|1
//           [--sample-seed N] [--n N] [--out-dir DIR] [--commit ID]
//
// --trace 0 runs the workload through the public engine API with the
// program's instrumentation off and prints the end-to-end metrics.
// --trace 1 replays one force phase on one lane through each layer's
// public calls, with a span around every call, and prints the per-layer
// metrics. Both modes enforce the correctness gate; a miss is a failed
// operation and the exit code is 1. The last stdout line is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// README.md defines every metric and workload.
#include <sys/resource.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/engines.hpp"
#include "core/integrator.hpp"
#include "ic/plummer.hpp"
#include "model/particles.hpp"
#include "obs/span.hpp"
#include "reference.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace g5bench {
namespace {

using Clock = std::chrono::steady_clock;
using Scope = SpanRecorder::Scope;
using g5::math::Vec3d;

/// Plummer realizations per untraced run, each set up and stepped in
/// turn: setup_s is the median of their set-ups, step_s of all their
/// steps. Realization 0 comes from --seed; the others are shared by every
/// run with the same --sample-seed (common random numbers). At N = 16k
/// the interactions per step vary by ~10 % (sd) from one realization to
/// the next, because where the group boundaries fall depends on the
/// realization; with every realization drawn from --seed, step_s would
/// spread with the seed rather than with the code.
constexpr std::uint64_t kRealizations = 5;
/// Fewest obs-off/obs-on step pairs in a traced run.
constexpr std::size_t kMinTracedPairs = 2;
/// Particles in the force-error sample, per realization.
constexpr std::size_t kForceErrorSamples = 4096;
/// Groups the untraced run replays to spot-check the engine's forces
/// (times n_crit single-particle lists for the per-particle walk).
constexpr std::size_t kCheckLists = 4;
/// Host kernels may regroup a sum; grape-tree must match bitwise.
constexpr double kHostReplayTolerance = 1e-9;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::uint64_t sample_seed = 1;
  std::size_t n = 0;  ///< 0: the workload's N
  std::string out_dir = ".bench_build";
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Correctness gate: every checked operation is attempted once; a miss is
/// a failure, logged to stderr.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "g5bench: correctness miss: " << what << "\n";
    }
  }
};

struct Outcome {
  Gate gate;
  std::vector<Metric> metrics;
  std::ostringstream details;  ///< JSON members for the result file
};

/// Seed of the k-th member of a seeded family; k = 0 is `seed` itself.
std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t k) {
  return seed + (k << 32);
}

/// Initial-condition seed of realization k (see kRealizations).
std::uint64_t realization_seed(const Options& o, std::uint64_t k) {
  return k == 0 ? o.seed : derived_seed(o.sample_seed << 8, k);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  return quantile(v, 0.5);
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

/// VmHWM of this process, in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

bool all_finite(const g5::model::ParticleSet& p) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    const Vec3d& a = p.acc()[i];
    if (!std::isfinite(a.x) || !std::isfinite(a.y) || !std::isfinite(a.z) ||
        !std::isfinite(p.pot()[i])) {
      return false;
    }
  }
  return true;
}

/// Bitwise equality of one particle's force and potential.
bool same_bits(const Vec3d& a, double pa, const Vec3d& b, double pb) {
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return bits(a.x) == bits(b.x) && bits(a.y) == bits(b.y) &&
         bits(a.z) == bits(b.z) && bits(pa) == bits(pb);
}

bool same_forces(const g5::model::ParticleSet& a,
                 const g5::model::ParticleSet& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a.acc()[i], a.pot()[i], b.acc()[i], b.pot()[i])) {
      return false;
    }
  }
  return true;
}

/// The replay's forces against the engine's, on the replayed particles.
bool replay_matches(const ReplayResult& r, const g5::model::ParticleSet& p,
                    const Workload& w) {
  if (r.replayed.empty()) return false;
  for (const std::uint32_t i : r.replayed) {
    const Vec3d& a = p.acc()[i];
    const Vec3d& b = r.acc[i];
    if (w.grape) {
      if (!same_bits(a, p.pot()[i], b, r.pot[i])) return false;
    } else {
      const double scale = std::sqrt(a.norm2());
      if (!(std::sqrt((a - b).norm2()) <= kHostReplayTolerance * scale) ||
          !(std::abs(p.pot()[i] - r.pot[i]) <=
            kHostReplayTolerance * std::abs(p.pot()[i]))) {
        return false;
      }
    }
  }
  return true;
}

g5::model::ParticleSet make_ic(const Options& o, std::uint64_t realization) {
  g5::ic::PlummerConfig ic;
  ic.n = o.n;
  ic.seed = realization_seed(o, realization);
  return g5::ic::make_plummer(ic);
}

std::unique_ptr<g5::core::ForceEngine> make_engine(const Workload& w) {
  return g5::core::make_engine(std::string(w.engine), force_params(w));
}

void json_array(std::ostream& os, const char* key,
                const std::vector<double>& v) {
  os << ",\"" << key << "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << "]";
}

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics, instrumentation off.
// ---------------------------------------------------------------------
void run_end_to_end(const Workload& w, const Options& o, Outcome& out) {
  Gate& gate = out.gate;
  std::vector<double> setup_s;
  std::vector<double> step_s;
  std::vector<double> step_rate;  // interactions per second, per step
  std::vector<double> errors;
  std::uint64_t interactions = 0;
  std::size_t checked_particles = 0;
  g5::model::ParticleSet first_prime;  // realization 0 after its set-up
  std::uint64_t prime_interactions = 0;
  for (std::uint64_t k = 0; k < kRealizations; ++k) {
    g5::model::ParticleSet pset;
    std::unique_ptr<g5::core::ForceEngine> engine;
    g5::core::LeapfrogIntegrator integ;
    const auto t0 = Clock::now();
    pset = make_ic(o, k);
    engine = make_engine(w);
    integ.prime(pset, *engine);
    setup_s.push_back(seconds_since(t0));
    gate.check(all_finite(pset), "prime: non-finite acc/pot");
    if (k == 0) {
      first_prime = pset;
      prime_interactions = engine->stats().interactions;
    }

    double wall_k = 0.0;
    for (std::size_t steps = 0;
         steps == 0 || wall_k < o.seconds / kRealizations; ++steps) {
      const std::uint64_t before = engine->stats().interactions;
      const auto t1 = Clock::now();
      integ.step(pset, *engine, kDt);
      const double s = seconds_since(t1);
      const std::uint64_t done = engine->stats().interactions - before;
      step_s.push_back(s);
      step_rate.push_back(static_cast<double>(done) / s);
      wall_k += s;
      interactions += done;
      gate.check(all_finite(pset), "step: non-finite acc/pot");
      if (steps > 0) continue;
      // Untimed, on the fixed state after the first step (so the values
      // repeat exactly for a seed): replay seeded lists against the
      // engine, and sample the force error against the direct sum.
      const std::uint64_t sample_seed = derived_seed(o.sample_seed, k);
      const ReplayResult spot = replay_force_phase(
          pset, w, w.grouped ? kCheckLists : kCheckLists * kNCrit,
          sample_seed, nullptr);
      gate.check(replay_matches(spot, pset, w),
                 "replay: forces differ from the engine's");
      checked_particles += spot.replayed.size();
      const std::vector<double> e =
          relative_force_errors(pset.pos(), pset.mass(), pset.acc(), kEps,
                                kForceErrorSamples, sample_seed,
                                bench_threads());
      errors.insert(errors.end(), e.begin(), e.end());
    }
  }
  const double rss = peak_rss_mib();

  // The same seed must give the same interactions and forces: set up
  // realization 0 again, untimed, and compare bitwise.
  {
    g5::model::ParticleSet pset = make_ic(o, 0);
    const auto engine = make_engine(w);
    g5::core::LeapfrogIntegrator integ;
    integ.prime(pset, *engine);
    gate.check(engine->stats().interactions == prime_interactions,
               "prime: interactions differ between set-ups of one seed");
    gate.check(same_forces(pset, first_prime),
               "prime: forces differ between set-ups of one seed");
  }

  out.metrics = {
      {"step_s", median(step_s), "s"},
      {"interactions_per_s", median(step_rate), "1/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mib", rss, "MiB"},
      {"force_err_p50", quantile(errors, 0.50), "ratio"},
      {"force_err_p99", quantile(errors, 0.99), "ratio"},
  };
  out.details << "\"prime_interactions\":" << prime_interactions
              << ",\"timed_steps\":" << step_s.size()
              << ",\"timed_interactions\":" << interactions
              << ",\"force_err_samples\":" << errors.size()
              << ",\"replay_checked_particles\":" << checked_particles;
  json_array(out.details, "step_s_samples", step_s);
  json_array(out.details, "setup_s_samples", setup_s);
}

// ---------------------------------------------------------------------
// --trace 1: per-layer metrics from spans around every layer call.
// ---------------------------------------------------------------------

/// Decorator that times every ForceEngine::compute as a `core.force` span.
class TracedEngine final : public g5::core::ForceEngine {
 public:
  TracedEngine(g5::core::ForceEngine& inner, SpanRecorder& rec)
      : ForceEngine(inner.params()), inner_(inner), rec_(rec) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  void compute(g5::model::ParticleSet& pset) override {
    {
      const Scope s(&rec_, "core.force");
      inner_.compute(pset);
    }
    stats_ = inner_.stats();
  }
  void compute_targets(g5::model::ParticleSet& pset,
                       std::span<const std::uint32_t> targets) override {
    {
      const Scope s(&rec_, "core.force");
      inner_.compute_targets(pset, targets);
    }
    stats_ = inner_.stats();
  }

 private:
  g5::core::ForceEngine& inner_;
  SpanRecorder& rec_;
};

double per(double seconds, std::uint64_t count, double unit) {
  return count > 0 ? seconds * unit / static_cast<double>(count) : 0.0;
}

void run_traced(const Workload& w, const Options& o, Outcome& out) {
  Gate& gate = out.gate;
  SpanRecorder rec;
  g5::model::ParticleSet pset;
  {
    const Scope s(&rec, "ic.plummer");
    pset = make_ic(o, 0);
  }
  std::unique_ptr<g5::core::ForceEngine> engine;
  {
    const Scope s(&rec, "core.make_engine");
    engine = make_engine(w);
  }
  TracedEngine traced(*engine, rec);
  g5::core::LeapfrogIntegrator integ;
  {
    const Scope s(&rec, "core.prime");
    integ.prime(pset, traced);
  }
  const std::uint64_t prime_interactions = engine->stats().interactions;
  gate.check(all_finite(pset), "prime: non-finite acc/pot");

  // Replay the priming phase: a fixed state, so the replay's counts and
  // modeled times repeat exactly for a seed.
  ReplayResult rr;
  {
    const Scope s(&rec, "core.replay");
    rr = replay_force_phase(pset, w, 0, 0, &rec);
  }
  gate.check(rr.replayed.size() == pset.size(),
             "replay: not every particle replayed");
  gate.check(rr.interactions == prime_interactions,
             "replay: interaction count differs from the engine's");
  gate.check(replay_matches(rr, pset, w),
             "replay: forces differ from the engine's");

  // Timed steps, alternating instrumentation off and on.
  double cpu_off = 0.0;
  double wall_off = 0.0;
  std::vector<double> step_on;
  const auto start = Clock::now();
  for (std::size_t pairs = 0;
       pairs < kMinTracedPairs || seconds_since(start) < o.seconds; ++pairs) {
    for (const bool obs_on : {false, true}) {
      g5::obs::set_enabled(obs_on);
      const double cpu0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      {
        const Scope s(&rec, obs_on ? "core.step_obs" : "core.step");
        integ.step(pset, traced, kDt);
      }
      const double wall = seconds_since(t0);
      const double cpu = process_cpu_seconds() - cpu0;
      g5::obs::set_enabled(false);
      if (obs_on) {
        step_on.push_back(wall);
      } else {
        wall_off += wall;
        cpu_off += cpu;
      }
      gate.check(all_finite(pset), "step: non-finite acc/pot");
    }
  }

  const auto& spans = rec.spans();
  const std::vector<double> self = rec.self_seconds();
  std::vector<double> step_off;
  std::vector<double> force_off;
  std::vector<double> integrate_off;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "core.step") {
      step_off.push_back(spans[i].seconds());
      integrate_off.push_back(self[i]);
    } else if (spans[i].name == "core.force" && spans[i].parent >= 0 &&
               spans[static_cast<std::size_t>(spans[i].parent)].name ==
                   "core.step") {
      force_off.push_back(spans[i].seconds());
    }
  }
  const double force_s = median(force_off);
  const double threads = static_cast<double>(bench_threads());

  out.metrics = {
      {"ic.plummer_s", rec.total("ic.plummer"), "s"},
      {"core.force_s", force_s, "s"},
      {"core.integrate_s", median(integrate_off), "s"},
      {"core.cpu_util", cpu_off / (wall_off * threads), "ratio"},
      {"core.parallel_speedup", rr.force_seconds / force_s, "ratio"},
      {"core.interactions_per_step", static_cast<double>(prime_interactions),
       "count"},
      {"tree.build_ns_per_particle",
       per(rec.total("tree.build"), pset.size(), 1e9), "ns"},
      {"tree.groups", static_cast<double>(rr.groups), "count"},
      {"tree.list_len_mean",
       rr.lists > 0 ? static_cast<double>(rr.list_entries) /
                          static_cast<double>(rr.lists)
                    : 0.0,
       "count"},
      {"tree.walk_ns_per_entry",
       per(rec.total("tree.walk"), rr.list_entries, 1e9), "ns"},
      {"grape.jword_ns", per(rec.total("grape.set_j"), rr.j_words, 1e9), "ns"},
      {"grape.kernel_ns_per_interaction",
       w.grape ? per(rec.total("grape.compute_raw"), rr.interactions, 1e9)
               : 0.0,
       "ns"},
      {"grape.readout_ns_per_iparticle",
       per(rec.total("grape.readout"), rr.i_particles, 1e9), "ns"},
      {"grape.occupancy",
       rr.vmp_slots > 0 ? static_cast<double>(rr.i_processed) /
                              static_cast<double>(rr.vmp_slots)
                        : 0.0,
       "ratio"},
      {"grape.saturated_share",
       rr.driver_calls > 0 ? static_cast<double>(rr.saturated_calls) /
                                 static_cast<double>(rr.driver_calls)
                           : 0.0,
       "ratio"},
      {"grape.modeled_s_per_step", rr.modeled_s, "s"},
      {"host.kernel_ns_per_interaction",
       w.grape ? 0.0 : per(rec.total("host.kernel"), rr.interactions, 1e9),
       "ns"},
      {"obs.overhead_frac", median(step_on) / median(step_off) - 1.0, "ratio"},
  };

  const std::string trace_path = o.out_dir + "/traces/" +
                                 std::string(w.name) + "-seed" +
                                 std::to_string(o.seed) + ".json";
  std::filesystem::create_directories(o.out_dir + "/traces");
  rec.write_chrome_trace(trace_path);
  out.details << "\"trace_file\":\"" << trace_path << "\""
              << ",\"spans\":" << spans.size()
              << ",\"replay_force_s\":" << rr.force_seconds
              << ",\"replay_interactions\":" << rr.interactions;
  json_array(out.details, "step_s_obs_off", step_off);
  json_array(out.details, "step_s_obs_on", step_on);
}

// ---------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "g5bench: " << why
            << "\nusage: g5bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--sample-seed N] [--n N] [--out-dir DIR] "
               "[--commit ID]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    usage(flag + " needs a non-negative integer");
  }
  if (used != v.size() || v.front() == '-') {
    usage(flag + " needs a non-negative integer");
  }
  return x;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == v) o.workload = &w;
      }
      if (o.workload == nullptr) usage("unknown workload '" + v + "'");
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_uint(flag, v));
      have_seconds = o.seconds > 0.0;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace is 0 or 1");
      o.trace = v == "1" ? 1 : 0;
      have_trace = true;
    } else if (flag == "--sample-seed") {
      o.sample_seed = parse_uint(flag, v);
    } else if (flag == "--n") {
      o.n = parse_uint(flag, v);
      if (o.n < 64) usage("--n must be at least 64");
    } else if (flag == "--out-dir") {
      o.out_dir = v;
    } else if (flag == "--commit") {
      o.commit = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  if (o.n == 0) o.n = o.workload->n;
  return o;
}

std::string host_json(const Options& o) {
  std::ostringstream h;
  h << "{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"threads\":" << bench_threads() << ",\"compiler\":\""
    << G5BENCH_COMPILER << "\",\"build_type\":\"" << G5BENCH_BUILD_TYPE
    << "\",\"commit\":\"" << o.commit << "\",\"workload\":\""
    << o.workload->name << "\",\"engine\":\"" << o.workload->engine
    << "\",\"n\":" << o.n << ",\"seed\":" << o.seed
    << ",\"sample_seed\":" << o.sample_seed << ",\"trace\":" << o.trace
    << ",\"seconds\":" << o.seconds << "}";
  return h.str();
}

int run(int argc, char** argv) {
  const Options o = parse(argc, argv);
  g5::obs::set_enabled(false);
  Outcome out;
  out.details.precision(17);
  if (o.trace == 1) {
    run_traced(*o.workload, o, out);
  } else {
    run_end_to_end(*o.workload, o, out);
  }
  Gate& gate = out.gate;
  for (const Metric& m : out.metrics) {
    gate.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }

  std::ostringstream result;
  result.precision(17);
  result << "{\"correct\": " << (gate.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << gate.attempted
         << ", \"failed\": " << gate.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    result << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": ";
    if (std::isfinite(m.value)) {
      result << m.value;
    } else {
      result << "null";
    }
    result << ", \"unit\": \"" << m.unit << "\"}";
  }
  result << "}}";

  const std::string host = host_json(o);
  std::filesystem::create_directories(o.out_dir + "/results");
  const std::string path = o.out_dir + "/results/" +
                           std::string(o.workload->name) + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           std::to_string(o.trace) + ".json";
  std::ofstream file(path);
  file << "{\"host\":" << host << ",\"result\":" << result.str() << ","
       << out.details.str() << "}\n";

  std::cout << "host " << host << "\n" << result.str() << std::endl;
  return gate.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace g5bench

int main(int argc, char** argv) {
  try {
    return g5bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "g5bench: " << e.what() << "\n";
    return 3;
  }
}
