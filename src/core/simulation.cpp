#include "core/simulation.hpp"

#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "core/engines.hpp"
#include "core/snapshot.hpp"
#include "obs/crash.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace g5::core {

namespace {

std::string snapshot_name(const std::string& prefix, std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "_%06llu.g5snap",
                static_cast<unsigned long long>(index));
  return prefix + buf;
}

}  // namespace

Simulation::Simulation(ForceEngine& engine, const SimulationConfig& config)
    : engine_(engine), cfg_(config) {
  if (cfg_.dt_schedule.empty()) {
    if (!(cfg_.dt > 0.0)) throw std::invalid_argument("dt must be > 0");
  } else {
    cfg_.steps = cfg_.dt_schedule.size();
    for (double dt : cfg_.dt_schedule) {
      if (!(dt > 0.0)) {
        throw std::invalid_argument("dt_schedule entries must be > 0");
      }
    }
  }
}

SimulationSummary Simulation::run(model::ParticleSet& pset) {
  SimulationSummary summary;
  util::Stopwatch wall;

  engine_.reset_stats();
  // The GRAPE account and byte meters feed the summary and the per-step
  // metrics.
  grape::Grape5System* gsys = engine_.grape_device() != nullptr
                                  ? &engine_.grape_device()->system()
                                  : nullptr;
  if (gsys != nullptr) gsys->reset_account();

  LeapfrogIntegrator integrator;
  integrator.prime(pset, engine_);
  summary.prime = engine_.stats();

  summary.energy_initial = diagnose(pset).energy;
  const math::Vec3d p0 = pset.total_momentum();
  const math::Vec3d l0 = pset.total_angular_momentum();

  std::uint64_t snap_index = 0;
  if (cfg_.snapshot_every > 0) {
    write_snapshot(snapshot_name(cfg_.snapshot_prefix, snap_index), pset, 0.0,
                   engine_.params().eps);
    ++snap_index;
    ++summary.snapshots_written;
  }

  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };
  std::unique_ptr<std::FILE, FileCloser> csv;
  if (!cfg_.stats_csv.empty()) {
    csv.reset(std::fopen(cfg_.stats_csv.c_str(), "w"));
    if (!csv) {
      throw std::runtime_error("cannot open " + cfg_.stats_csv +
                               " for writing");
    }
    std::fprintf(csv.get(),
                 "step,time,interactions,lists,mean_list,kinetic,potential,"
                 "total_energy\n");
  }
  std::uint64_t prev_inter = engine_.stats().interactions;
  std::uint64_t prev_lists = engine_.stats().walk.lists;
  std::uint64_t prev_entries = engine_.stats().walk.list_entries;

  // Per-step observability: baselines for StepMetrics deltas (taken after
  // priming so step records carry step work only).
  std::optional<obs::MetricsWriter> metrics;
  if (!cfg_.metrics_jsonl.empty()) metrics.emplace(cfg_.metrics_jsonl);
  // Fresh probe per run: its sampling stream restarts at call 0, so a
  // rerun with the same seed reproduces the same subsets.
  std::optional<obs::ForceErrorProbe> probe;
  if (cfg_.probe_every > 0) {
    obs::ProbeConfig pc;
    pc.samples = cfg_.probe_samples;
    pc.seed = cfg_.probe_seed;
    pc.eps = engine_.params().eps;
    pc.theta = engine_.params().theta;
    pc.mac = engine_.params().mac;
    pc.leaf_max = engine_.params().leaf_max;
    pc.quadrupole = engine_.params().quadrupole;
    pc.backend = engine_.params().backend;
    pc.codec = gsys != nullptr;
    probe.emplace(pc);
  }
  EngineStats prev_stats = engine_.stats();
  grape::HardwareAccount prev_grape =
      gsys ? gsys->account() : grape::HardwareAccount{};
  std::uint64_t prev_bytes = gsys ? gsys->bytes_moved() : 0;

  double t_elapsed = 0.0;
  // Heartbeat state: steps/s smoothed with an EMA so the ETA is stable
  // against per-step jitter. Published as g5.sim.* gauges each step;
  // the telemetry sampler snapshots them into the status file.
  double rate_ema = 0.0;
  for (std::uint64_t s = 1; s <= cfg_.steps; ++s) {
    const double dt = cfg_.dt_schedule.empty()
                          ? cfg_.dt
                          : cfg_.dt_schedule[static_cast<std::size_t>(s - 1)];
    util::Stopwatch step_wall;
    G5_OBS_SPAN("step", "sim");
    integrator.step(pset, engine_, dt);
    t_elapsed += dt;

    if (hook_) hook_(s, pset);

    if (csv) {
      G5_OBS_SPAN("diagnostics", "sim");
      const auto& es = engine_.stats();
      const std::uint64_t d_inter = es.interactions - prev_inter;
      const std::uint64_t d_lists = es.walk.lists - prev_lists;
      const std::uint64_t d_entries = es.walk.list_entries - prev_entries;
      prev_inter = es.interactions;
      prev_lists = es.walk.lists;
      prev_entries = es.walk.list_entries;
      const auto diag = diagnose(pset);
      std::fprintf(csv.get(), "%llu,%.10g,%llu,%llu,%.6g,%.10g,%.10g,%.10g\n",
                   static_cast<unsigned long long>(s), t_elapsed,
                   static_cast<unsigned long long>(d_inter),
                   static_cast<unsigned long long>(d_lists),
                   d_lists > 0 ? static_cast<double>(d_entries) /
                                     static_cast<double>(d_lists)
                               : 0.0,
                   diag.energy.kinetic, diag.energy.potential,
                   diag.energy.total());
    }

    if (cfg_.log_every > 0 && (s % cfg_.log_every == 0 || s == cfg_.steps)) {
      const auto& es = engine_.stats();
      // rate_ema lags one step here (it updates after the step record
      // below); good enough for a human-facing progress line.
      const double eta_s =
          rate_ema > 0.0
              ? static_cast<double>(cfg_.steps - s) / rate_ema
              : 0.0;
      util::log_info() << "step " << s << "/" << cfg_.steps << " t="
                       << t_elapsed << " interactions=" << es.interactions
                       << " wall=" << wall.elapsed() << "s rate="
                       << rate_ema << "/s eta=" << eta_s << "s";
    }
    if (cfg_.diag_every > 0 && s % cfg_.diag_every == 0) {
      G5_OBS_SPAN("diagnostics", "sim");
      const auto diag = diagnose(pset);
      util::log_info() << "  E=" << diag.energy.total()
                       << " drift=" << relative_energy_drift(
                              diag.energy, summary.energy_initial)
                       << " |p|=" << diag.momentum.norm();
    }
    if (cfg_.snapshot_every > 0 && s % cfg_.snapshot_every == 0) {
      G5_OBS_SPAN("snapshot", "io");
      write_snapshot(snapshot_name(cfg_.snapshot_prefix, snap_index), pset,
                     t_elapsed, engine_.params().eps);
      ++snap_index;
      ++summary.snapshots_written;
    }

    // Step record: engine/hardware deltas over this step. Cheap enough
    // (a couple of struct copies) to keep unconditionally in sync.
    obs::StepMetrics m;
    if (probe && s % cfg_.probe_every == 0) {
      G5_OBS_SPAN("diagnostics", "sim");
      // Accuracy telemetry: conservation drifts against the primed state
      // and the sampled force-error split. acc/pot are current — the
      // integrator's closing kick just recomputed them.
      const auto diag = diagnose(pset);
      const double e_drift =
          relative_energy_drift(diag.energy, summary.energy_initial);
      const double p_drift = (diag.momentum - p0).norm();
      if (obs::enabled()) {
        obs::gauge("g5.sim.energy_drift").set(e_drift);
        obs::gauge("g5.sim.momentum_drift").set(p_drift);
      }
      const obs::ProbeResult pr = probe->measure(pset);
      summary.probe_last = pr;
      ++summary.probe_calls;
      m.energy_drift = e_drift;
      m.momentum_drift = p_drift;
      m.err_total_p50 = pr.total_p50;
      m.err_total_p99 = pr.total_p99;
      m.err_tree_p50 = pr.tree_p50;
      m.err_tree_p99 = pr.tree_p99;
      m.err_codec_p50 = pr.codec_p50;
      m.err_codec_p99 = pr.codec_p99;
    }
    m.step = s;
    m.t_sim = t_elapsed;
    m.wall_s = step_wall.elapsed();
    {
      const EngineStats& es = engine_.stats();
      m.build_s = es.seconds_tree_build - prev_stats.seconds_tree_build;
      m.walk_s = es.seconds_walk - prev_stats.seconds_walk;
      m.kernel_s = es.seconds_kernel - prev_stats.seconds_kernel;
      m.engine_s = es.seconds_total - prev_stats.seconds_total;
      m.interactions = es.interactions - prev_stats.interactions;
      m.list_entries = es.walk.list_entries - prev_stats.walk.list_entries;
      m.groups = es.groups - prev_stats.groups;
      prev_stats = es;
    }
    if (gsys) {
      const grape::HardwareAccount& ga = gsys->account();
      m.grape_force_calls = ga.force_calls - prev_grape.force_calls;
      m.grape_j_uploaded = ga.j_uploaded - prev_grape.j_uploaded;
      m.grape_emulation_s = ga.emulation_wall - prev_grape.emulation_wall;
      m.grape_modeled_dma_s =
          (ga.modeled_dma_j + ga.modeled_dma_i + ga.modeled_dma_result) -
          (prev_grape.modeled_dma_j + prev_grape.modeled_dma_i +
           prev_grape.modeled_dma_result);
      m.grape_modeled_compute_s =
          ga.modeled_compute - prev_grape.modeled_compute;
      m.grape_occupancy = ga.occupancy();
      const std::uint64_t bytes = gsys->bytes_moved();
      m.grape_bytes = bytes - prev_bytes;
      prev_bytes = bytes;
      prev_grape = ga;
    }
    if (metrics) metrics->write(m);
    // Heartbeat gauges + flight-recorder step ring. The recorder is
    // armed independently of obs::enabled() (it powers the crash
    // post-mortem even in otherwise-uninstrumented runs).
    {
      const double inst = m.wall_s > 0.0 ? 1.0 / m.wall_s : 0.0;
      rate_ema = s == 1 ? inst : 0.3 * inst + 0.7 * rate_ema;
    }
    if (obs::FlightRecorder::armed()) {
      obs::FlightRecorder::instance().record_step(m);
      // Keep the crash dump's pre-serialized registry section and cached
      // device-gauge pointers current (board gauges don't exist yet when
      // the handlers install, before the engine is built).
      if (obs::crash::installed()) obs::crash::refresh();
    }
    if (obs::enabled()) {
      obs::gauge("g5.sim.step").set(static_cast<double>(s));
      obs::gauge("g5.sim.steps_total")
          .set(static_cast<double>(cfg_.steps));
      obs::gauge("g5.sim.steps_per_s").set(rate_ema);
      obs::gauge("g5.sim.eta_s")
          .set(rate_ema > 0.0
                   ? static_cast<double>(cfg_.steps - s) / rate_ema
                   : 0.0);
      obs::gauge("g5.sim.interactions_per_s")
          .set(m.wall_s > 0.0
                   ? static_cast<double>(m.interactions) / m.wall_s
                   : 0.0);
      obs::gauge("g5.sim.mean_list")
          .set(m.groups > 0 ? static_cast<double>(m.list_entries) /
                                  static_cast<double>(m.groups)
                            : 0.0);
      obs::counter("g5.sim.steps").add(1);
      if (obs::tracing()) {
        obs::trace_counter("g5.step.interactions",
                           static_cast<double>(m.interactions));
        obs::trace_counter("g5.step.wall_s", m.wall_s);
      }
    }
  }

  summary.steps = cfg_.steps;
  summary.wall_seconds = wall.elapsed();
  summary.engine = engine_.stats();
  if (gsys) summary.grape = gsys->account();
  summary.energy_final = diagnose(pset).energy;
  summary.energy_drift =
      relative_energy_drift(summary.energy_final, summary.energy_initial);
  const math::Vec3d p1 = pset.total_momentum();
  summary.momentum_drift = {std::fabs(p1.x - p0.x), std::fabs(p1.y - p0.y),
                            std::fabs(p1.z - p0.z)};
  summary.angular_momentum_drift =
      (pset.total_angular_momentum() - l0).norm();
  return summary;
}

}  // namespace g5::core
