#include "grape/system.hpp"

#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace g5::grape {

Grape5System::Grape5System(const SystemConfig& config)
    : cfg_(config), timing_(config), set_(config) {}

void Grape5System::set_range(double lo, double hi, double eps,
                             double mass_scale) {
  if (!(hi > lo)) throw std::invalid_argument("range window empty");
  if (eps < 0.0) throw std::invalid_argument("softening must be >= 0");
  scaling_.range_lo = lo;
  scaling_.range_hi = hi;
  scaling_.eps = eps;
  // Accumulator quanta from the problem scales: small enough that
  // quantization is far below the pipeline's log-format error, large
  // enough that softened close encounters cannot overflow 63 bits. See
  // tests/grape_system_test.cpp for the headroom checks.
  derive_scaling_quanta(scaling_, mass_scale);
  set_.configure(scaling_);
  range_set_ = true;
}

void Grape5System::publish_obs_metrics(std::size_t nj_uploaded,
                                       std::size_t ni, std::size_t nj) {
  if (!obs::enabled()) return;
  if (nj_uploaded > 0) obs::counter("g5.grape.j_uploaded").add(nj_uploaded);
  if (ni > 0 && nj > 0) {
    obs::counter("g5.grape.force_calls").add(1);
    obs::counter("g5.grape.interactions").add(ni * nj);
    obs::counter("g5.grape.i_processed").add(ni);
  }
  const std::uint64_t bytes = bytes_moved();
  if (bytes > counted_bytes_) {
    obs::counter("g5.grape.bytes").add(bytes - counted_bytes_);
  }
  counted_bytes_ = bytes;
  obs::gauge("g5.grape.occupancy").set(account_.occupancy());
}

void Grape5System::latch_saturation(bool saturated) {
  if (!saturated) return;
  if (!saturated_) {
    util::log_warn() << "GRAPE-5 accumulator saturation detected; "
                        "range window or mass scale is mis-set";
  }
  saturated_ = true;  // latched until reset_account()
}

void Grape5System::set_j_particles(std::span<const Vec3d> pos,
                                   std::span<const double> mass) {
  G5_OBS_SPAN("j_upload", "grape");
  if (!range_set_) {
    throw std::logic_error("set_range must be called before set_j_particles");
  }
  set_.upload(pos, mass);
  const std::size_t nj = pos.size();
  account_upload(nj);
  publish_obs_metrics(nj, 0, 0);
}

std::size_t Grape5System::compute_raw(std::span<const Vec3d> i_pos,
                                      std::span<RawForce> raw) {
  if (!range_set_) {
    throw std::logic_error("set_range must be called before compute");
  }
  const std::size_t ni = i_pos.size();
  if (raw.size() != ni) {
    throw std::invalid_argument("output span arity mismatch");
  }
  if (ni == 0 || resident_j() == 0) return 0;
  G5_OBS_SPAN("compute", "grape");

  util::Stopwatch watch;
  const std::size_t interactions = set_.run(i_pos, raw);
  account_.emulation_wall += watch.elapsed();

  bool call_saturated = false;
  for (std::size_t i = 0; i < ni; ++i) call_saturated |= raw[i].saturated;

  account_compute(ni, resident_j());
  publish_obs_metrics(0, ni, resident_j());
  latch_saturation(call_saturated);
  return interactions;
}

void Grape5System::account_upload(std::size_t nj) {
  account_.j_uploaded += nj;
  account_.modeled_dma_j += timing_.j_upload_time(nj);
}

void Grape5System::account_compute(std::size_t ni, std::size_t nj) {
  const ForceCallTiming t = timing_.force_call(ni, nj, false);
  account_.modeled_dma_i += t.dma_i;
  account_.modeled_compute += t.compute;
  account_.modeled_dma_result += t.dma_result;
  ++account_.force_calls;
  account_.interactions += static_cast<std::uint64_t>(ni) * nj;
  account_.i_processed += ni;
  // Occupancy denominator: the VMP streams full i-chunks, so a call of
  // ni i-particles occupies ceil(ni / i_slots) * i_slots slots.
  const std::size_t slots = cfg_.board.i_slots();
  account_.vmp_slots +=
      static_cast<std::uint64_t>((ni + slots - 1) / slots) * slots;
}

void Grape5System::charge_call(std::size_t nj, std::size_t ni) {
  set_.charge_hib(nj, ni);
  account_upload(nj);
  // compute_raw charges nothing for an empty call.
  const bool computed = ni > 0 && nj > 0;
  if (computed) account_compute(ni, nj);
  publish_obs_metrics(nj, computed ? ni : 0, nj);
}

void Grape5System::charge_evaluation(double emulation_seconds,
                                     bool saturated) {
  account_.emulation_wall += emulation_seconds;
  latch_saturation(saturated);
}

void Grape5System::reset_account() {
  account_.reset();
  saturated_ = false;
  set_.reset_hib();
  counted_bytes_ = 0;  // HIB meters restart; keep the obs delta base in sync
}

std::uint64_t Grape5System::bytes_moved() const { return set_.bytes_moved(); }

}  // namespace g5::grape
