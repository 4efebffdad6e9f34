// GRAPE-5 driver API.
//
// Two faces over the same emulated hardware:
//
//  * Grape5Device — the C++ RAII interface the rest of this library uses
//    (force engines, examples). Accepts arbitrarily large i-sets (chunked
//    over the virtual pipelines internally); j-lists longer than the
//    particle memory upload in chunks whose integer partial sums merge
//    on the host (see set_j).
//
//  * the g5_* free functions — a faithful veneer of the original user
//    library shipped with the hardware (g5_open, g5_set_range,
//    g5_set_xmj, g5_set_xi, g5_run, g5_get_force, g5_close), operating on
//    a process-global device, with the same call-order contract the real
//    library had. examples/grape_driver_demo.cpp uses this face.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "grape/system.hpp"

namespace g5::grape {

class Grape5Device {
 public:
  explicit Grape5Device(const SystemConfig& config = SystemConfig{});

  /// Coordinate window all particles must fit in, plus the mass scale
  /// that sets the accumulator scaling, as on the real hardware. The
  /// third argument keeps the historical name but is read as the
  /// largest sum of |m| one force call streams (derive_scaling_quanta;
  /// 0 means 1): with eps > 0 such a call cannot reach the rail. A
  /// smaller value — the historical smallest mass — stays exact, through
  /// Pipeline::evaluate's block drain, only slower.
  void set_range(double xmin, double xmax, double min_mass);

  /// Plummer softening applied inside the pipelines.
  void set_eps(double eps);

  /// Load field sources. Throws if they exceed the aggregate j-memory;
  /// callers with longer lists upload them in jmem_capacity()-sized
  /// chunks and merge each chunk's Grape5System::compute_raw counts.
  void set_j(std::span<const Vec3d> pos, std::span<const double> mass);

  /// Forces of the resident j-set on the given targets (any ni): the
  /// boards' integer partial sums merge exactly, then convert once
  /// (Pipeline::convert_raw).
  void compute_forces(std::span<const Vec3d> i_pos, std::span<Vec3d> acc,
                      std::span<double> pot);

  /// Charge a call of `ni` targets against an `nj`-long j-list that was
  /// evaluated off the device (core::GrapeListKernel's lanes run
  /// Pipeline::evaluate on system().pipeline()): the per-jmem-chunk
  /// account, byte-meter and obs charges the chunked upload/compute_raw
  /// loop would make here, plus the measured emulation seconds and the
  /// saturation latch. A caller that evaluates on several lanes folds
  /// their calls with this in a fixed order, so the modeled doubles do
  /// not depend on which lane ran which call.
  void charge_chunked(std::size_t ni, std::size_t nj, double emulation_seconds,
                      bool saturated);

  [[nodiscard]] Grape5System& system() noexcept { return *system_; }
  [[nodiscard]] const Grape5System& system() const noexcept {
    return *system_;
  }

  [[nodiscard]] std::size_t jmem_capacity() const {
    return system_->jmem_capacity();
  }
  [[nodiscard]] std::size_t pipelines() const {
    return system_->config().total_pipelines();
  }

 private:
  std::unique_ptr<Grape5System> system_;
  double range_lo_ = -1.0, range_hi_ = 1.0;
  double min_mass_ = 0.0;
  double eps_ = 0.0;
  bool range_set_ = false;

  void push_scaling();

  // compute_forces' integer partial sums.
  std::vector<RawForce> raw_scratch_;
};

// --------------------------------------------------------------------
// Original-style C API (process-global device). Call order contract:
//   g5_open -> g5_set_range / g5_set_eps_to_all ->
//   { g5_set_n; g5_set_xmj ... ; g5_set_xi; g5_run; g5_get_force } ... ->
//   g5_close.
// Positions are double[3] arrays as in the historical library.
// --------------------------------------------------------------------

void g5_open();
void g5_close();
bool g5_is_open();

/// i-particles accepted per g5_set_xi call (virtual pipeline count).
int g5_get_number_of_pipelines();
/// Capacity of the aggregate j-particle memory.
int g5_get_jmemsize();

/// The window and mass scale (Grape5Device::set_range: `min_mass` is read
/// as the largest sum of |m| one g5_run streams).
void g5_set_range(double xmin, double xmax, double min_mass);
void g5_set_eps_to_all(double eps);

/// Declare the length of the resident j-set (must be <= jmemsize).
void g5_set_n(int nj);
/// Load nj j-particles starting at address adr.
void g5_set_xmj(int adr, int nj, const double (*x)[3], const double* m);
/// Load the i-particles for the next run (ni <= number_of_pipelines).
void g5_set_xi(int ni, const double (*x)[3]);
/// Stream the resident j-set through the pipelines.
void g5_run();
/// Read back accelerations and potentials for the last g5_set_xi batch.
void g5_get_force(int ni, double (*a)[3], double* p);

/// Access the global device (tests / diagnostics).
Grape5Device& g5_device();

}  // namespace g5::grape
