// GRAPE-5 driver API.
//
// Two faces over the same emulated hardware:
//
//  * Grape5Device — the C++ RAII interface the rest of this library uses
//    (force engines, examples). Accepts arbitrarily large i-sets (chunked
//    over the virtual pipelines internally) and arbitrarily long j-lists
//    (chunked over the particle memory with host-side partial sums).
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

  /// Coordinate window all particles must fit in, plus the minimum mass
  /// (sets the accumulator scaling, as on the real hardware).
  void set_range(double xmin, double xmax, double min_mass);

  /// Plummer softening applied inside the pipelines.
  void set_eps(double eps);

  /// Load field sources. Throws if they exceed the aggregate j-memory; use
  /// compute_forces_chunked for longer lists.
  void set_j(std::span<const Vec3d> pos, std::span<const double> mass);

  /// Forces of the resident j-set on the given targets (any ni), read
  /// out through the same raw-domain merge and single conversion as
  /// compute_forces_chunked.
  void compute_forces(std::span<const Vec3d> i_pos, std::span<Vec3d> acc,
                      std::span<double> pot);

  /// Forces of an arbitrarily long j-list on the targets: the driver
  /// splits the list into j-memory-sized chunks and accumulates the
  /// partial sums on the host (what the real library's user code did) —
  /// in the integer accumulator domain, so the result is bitwise-
  /// independent of the chunk boundaries and the board count
  /// (docs/scaling.md). Returns true if any target's accumulators
  /// saturated.
  bool compute_forces_chunked(std::span<const Vec3d> i_pos,
                              std::span<const Vec3d> j_pos,
                              std::span<const double> j_mass,
                              std::span<Vec3d> acc, std::span<double> pot);

  /// Take over another device's range window, mass scale and softening
  /// (drops the resident j-set, like set_range).
  void configure_like(const Grape5Device& other);

  /// Charge a compute_forces_chunked call of `ni` targets against `nj`
  /// j-particles that ran on another device of the same configuration:
  /// the same per-chunk account, HIB-meter and saturation-latch charges
  /// it would have made here, plus its measured emulation seconds. A
  /// caller that evaluates on several devices folds their calls into one
  /// with this, in a fixed order, so the modeled doubles do not depend
  /// on which device ran which call.
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
  [[nodiscard]] double eps() const noexcept { return eps_; }

 private:
  std::unique_ptr<Grape5System> system_;
  double range_lo_ = -1.0, range_hi_ = 1.0;
  double min_mass_ = 0.0;
  double eps_ = 0.0;
  bool range_set_ = false;

  void push_scaling();
  /// The readout both compute paths share: check arity, zero the outputs
  /// and `ni` raw registers; finish_readout converts once, ORs saturation.
  std::span<RawForce> begin_readout(std::size_t ni, std::span<Vec3d> acc,
                                    std::span<double> pot);
  bool finish_readout(std::span<const RawForce> raw, std::span<Vec3d> acc,
                      std::span<double> pot) const;

  // Cross-call (and cross-chunk) integer partial sums.
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
