#include "core/comoving.hpp"

#include <cmath>
#include <stdexcept>

#include "util/log.hpp"
#include "util/timer.hpp"

namespace g5::core {

ComovingSimulation::ComovingSimulation(ForceEngine& engine,
                                       const ComovingConfig& config)
    : engine_(engine), cfg_(config), cosmo_(config.cosmo) {
  if (!(cfg_.a_end > cfg_.a_start) || cfg_.a_start <= 0.0) {
    throw std::invalid_argument("need 0 < a_start < a_end");
  }
  if (cfg_.steps == 0) throw std::invalid_argument("steps must be > 0");
}

void ComovingSimulation::peculiar_force(model::ParticleSet& pset, double a) {
  engine_.compute(pset);  // g_com into acc()
  const double c = cosmo_.comoving_background_coefficient(a);
  auto& acc = pset.acc();
  const auto& pos = pset.pos();
  for (std::size_t i = 0; i < pset.size(); ++i) {
    acc[i] += c * pos[i];
  }
}

ComovingSummary ComovingSimulation::run(model::ParticleSet& pset) {
  ComovingSummary summary;
  util::Stopwatch wall;
  engine_.reset_stats();

  const std::vector<math::Vec3d> x0 = pset.pos();

  const double ln_ratio = std::log(cfg_.a_end / cfg_.a_start);
  auto a_at = [&](double frac) {
    return cfg_.a_start * std::exp(ln_ratio * frac);
  };

  double a = cfg_.a_start;
  peculiar_force(pset, a);
  summary.prime = engine_.stats();

  const auto n_steps = cfg_.steps;
  for (std::uint64_t s = 1; s <= n_steps; ++s) {
    const double a_next =
        a_at(static_cast<double>(s) / static_cast<double>(n_steps));
    const double a_mid = std::sqrt(a * a_next);  // midpoint in ln a

    // Kick over [a, a_mid]: dp = g_pec * int dt/a. The force was evaluated
    // at the current positions; dividing the kick at a_mid keeps the
    // scheme second order (standard KDK with exact factors).
    const double k1 = cosmo_.kick_factor(a, a_mid);
    auto& vel = pset.vel();
    auto& acc = pset.acc();
    for (std::size_t i = 0; i < pset.size(); ++i) vel[i] += k1 * acc[i];

    // Drift over the full interval: dx = p * int dt/a^2.
    const double d = cosmo_.drift_factor(a, a_next);
    auto& pos = pset.pos();
    for (std::size_t i = 0; i < pset.size(); ++i) pos[i] += d * vel[i];

    // Closing kick over [a_mid, a_next] with the new force.
    peculiar_force(pset, a_next);
    const double k2 = cosmo_.kick_factor(a_mid, a_next);
    for (std::size_t i = 0; i < pset.size(); ++i) vel[i] += k2 * acc[i];

    a = a_next;
    if (cfg_.log_every > 0 && (s % cfg_.log_every == 0 || s == n_steps)) {
      util::log_info() << "comoving step " << s << "/" << n_steps
                       << " a=" << a << " z=" << (1.0 / a - 1.0)
                       << " wall=" << wall.elapsed() << "s";
    }
  }

  double disp2 = 0.0;
  for (std::size_t i = 0; i < pset.size(); ++i) {
    disp2 += (pset.pos()[i] - x0[i]).norm2();
  }
  summary.steps = n_steps;
  summary.wall_seconds = wall.elapsed();
  summary.engine = engine_.stats();
  summary.a_final = a;
  summary.rms_comoving_displacement = pset.empty()
      ? 0.0
      : std::sqrt(disp2 / static_cast<double>(pset.size()));
  return summary;
}

void ComovingSimulation::physical_to_comoving(model::ParticleSet& pset,
                                              const model::Cosmology& cosmo,
                                              double a) {
  if (a <= 0.0) throw std::invalid_argument("scale factor must be > 0");
  const double hubble = cosmo.hubble(a);
  for (std::size_t i = 0; i < pset.size(); ++i) {
    const math::Vec3d r = pset.pos()[i];
    const math::Vec3d v = pset.vel()[i];
    pset.pos()[i] = r / a;
    // p = a^2 dx/dt = a (v - H r).
    pset.vel()[i] = a * (v - hubble * r);
  }
}

void ComovingSimulation::comoving_to_physical(model::ParticleSet& pset,
                                              const model::Cosmology& cosmo,
                                              double a) {
  if (a <= 0.0) throw std::invalid_argument("scale factor must be > 0");
  const double hubble = cosmo.hubble(a);
  for (std::size_t i = 0; i < pset.size(); ++i) {
    const math::Vec3d x = pset.pos()[i];
    const math::Vec3d p = pset.vel()[i];
    pset.pos()[i] = a * x;
    pset.vel()[i] = hubble * a * x + p / a;
  }
}

}  // namespace g5::core
