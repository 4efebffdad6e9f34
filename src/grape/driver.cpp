#include "grape/driver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/log.hpp"

namespace g5::grape {

Grape5Device::Grape5Device(const SystemConfig& config)
    : system_(std::make_unique<Grape5System>(config)) {}

void Grape5Device::push_scaling() {
  system_->set_range(range_lo_, range_hi_, eps_, min_mass_);
}

void Grape5Device::set_range(double xmin, double xmax, double min_mass) {
  if (!(xmax > xmin)) throw std::invalid_argument("range window empty");
  if (min_mass < 0.0) throw std::invalid_argument("min_mass must be >= 0");
  range_lo_ = xmin;
  range_hi_ = xmax;
  min_mass_ = min_mass;
  range_set_ = true;
  push_scaling();
}

void Grape5Device::set_eps(double eps) {
  if (!std::isfinite(eps) || eps < 0.0) {
    throw std::invalid_argument("softening must be finite and >= 0");
  }
  eps_ = eps;
  if (range_set_) push_scaling();
}

void Grape5Device::set_j(std::span<const Vec3d> pos,
                         std::span<const double> mass) {
  if (!range_set_) throw std::logic_error("set_range before set_j");
  system_->set_j_particles(pos, mass);
}

void Grape5Device::compute_forces(std::span<const Vec3d> i_pos,
                                  std::span<Vec3d> acc,
                                  std::span<double> pot) {
  const std::size_t ni = i_pos.size();
  if (acc.size() != ni || pot.size() != ni) {
    throw std::invalid_argument("output span arity mismatch");
  }
  raw_scratch_.assign(ni, RawForce{});
  system_->compute_raw(i_pos, raw_scratch_);
  // One conversion after the exact integer merge — the same readout a
  // single board holding the whole j-set would perform.
  const Pipeline& pipe = system_->pipeline();
  for (std::size_t i = 0; i < ni; ++i) {
    pipe.convert_raw(raw_scratch_[i], acc[i], pot[i]);
  }
}

void Grape5Device::charge_chunked(std::size_t ni, std::size_t nj,
                                  double emulation_seconds, bool saturated) {
  if (ni == 0 || nj == 0) return;
  const std::size_t cap = jmem_capacity();
  for (std::size_t off = 0; off < nj; off += cap) {
    system_->charge_call(std::min(cap, nj - off), ni);
  }
  system_->charge_evaluation(emulation_seconds, saturated);
}

// --------------------------------------------------------------------
// C-style veneer.
// --------------------------------------------------------------------

namespace {

struct DriverState {
  std::unique_ptr<Grape5Device> device;
  // Host-side staging, flushed to the boards at g5_run.
  std::vector<Vec3d> j_pos;
  std::vector<double> j_mass;
  bool j_dirty = false;
  std::vector<Vec3d> i_pos;
  std::vector<Vec3d> result_acc;
  std::vector<double> result_pot;
  bool have_result = false;
};

DriverState& state() {
  static DriverState s;
  return s;
}

void require_open() {
  if (!state().device) {
    throw std::logic_error("g5_open() has not been called");
  }
}

}  // namespace

void g5_open() {
  if (state().device) {
    util::log_warn() << "g5_open: device already open";
    return;
  }
  state().device = std::make_unique<Grape5Device>();
}

void g5_close() {
  state() = DriverState{};
}

bool g5_is_open() { return static_cast<bool>(state().device); }

Grape5Device& g5_device() {
  require_open();
  return *state().device;
}

int g5_get_number_of_pipelines() {
  require_open();
  const auto& cfg = state().device->system().config();
  return static_cast<int>(cfg.boards * cfg.board.i_slots());
}

int g5_get_jmemsize() {
  require_open();
  return static_cast<int>(state().device->jmem_capacity());
}

void g5_set_range(double xmin, double xmax, double min_mass) {
  require_open();
  state().device->set_range(xmin, xmax, min_mass);
  state().j_dirty = true;
}

void g5_set_eps_to_all(double eps) {
  require_open();
  state().device->set_eps(eps);
  state().j_dirty = true;
}

void g5_set_n(int nj) {
  require_open();
  if (nj < 0 || nj > g5_get_jmemsize()) {
    throw std::out_of_range("g5_set_n: nj out of range [0, jmemsize]");
  }
  state().j_pos.resize(static_cast<std::size_t>(nj));
  state().j_mass.resize(static_cast<std::size_t>(nj));
  state().j_dirty = true;
}

void g5_set_xmj(int adr, int nj, const double (*x)[3], const double* m) {
  require_open();
  auto& s = state();
  if (adr < 0 || nj < 0 ||
      static_cast<std::size_t>(adr) + static_cast<std::size_t>(nj) >
          s.j_pos.size()) {
    throw std::out_of_range("g5_set_xmj: segment outside [0, nj) from g5_set_n");
  }
  for (int k = 0; k < nj; ++k) {
    s.j_pos[static_cast<std::size_t>(adr + k)] =
        Vec3d{x[k][0], x[k][1], x[k][2]};
    s.j_mass[static_cast<std::size_t>(adr + k)] = m[k];
  }
  s.j_dirty = true;
}

void g5_set_xi(int ni, const double (*x)[3]) {
  require_open();
  if (ni < 0 || ni > g5_get_number_of_pipelines()) {
    throw std::out_of_range(
        "g5_set_xi: ni exceeds the pipeline count; chunk the i-set (got " +
        std::to_string(ni) + ")");
  }
  auto& s = state();
  s.i_pos.resize(static_cast<std::size_t>(ni));
  for (int i = 0; i < ni; ++i) {
    s.i_pos[static_cast<std::size_t>(i)] = Vec3d{x[i][0], x[i][1], x[i][2]};
  }
  s.have_result = false;
}

void g5_run() {
  require_open();
  auto& s = state();
  if (s.i_pos.empty()) {
    throw std::logic_error("g5_run: no i-particles loaded (g5_set_xi)");
  }
  if (s.j_dirty) {
    s.device->set_j(s.j_pos, s.j_mass);
    s.j_dirty = false;
  }
  s.result_acc.resize(s.i_pos.size());
  s.result_pot.resize(s.i_pos.size());
  s.device->compute_forces(s.i_pos, s.result_acc, s.result_pot);
  s.have_result = true;
}

void g5_get_force(int ni, double (*a)[3], double* p) {
  require_open();
  auto& s = state();
  if (!s.have_result) {
    throw std::logic_error("g5_get_force: g5_run has not completed");
  }
  if (ni < 0 || static_cast<std::size_t>(ni) > s.result_acc.size()) {
    throw std::out_of_range("g5_get_force: ni exceeds the last batch");
  }
  for (int i = 0; i < ni; ++i) {
    a[i][0] = s.result_acc[static_cast<std::size_t>(i)].x;
    a[i][1] = s.result_acc[static_cast<std::size_t>(i)].y;
    a[i][2] = s.result_acc[static_cast<std::size_t>(i)].z;
    p[i] = s.result_pot[static_cast<std::size_t>(i)];
  }
}

}  // namespace g5::grape
