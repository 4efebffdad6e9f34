// Hardware configuration of the emulated GRAPE-5 system.
//
// The numbers below describe the machine the paper used (Section 2):
// 2 processor boards, 8 G5 chips per board, 2 force pipelines per chip,
// pipelines clocked at 90 MHz with the rest of the board at 15 MHz. Each
// physical pipeline is 6-way virtually multiplexed (90/15), so one
// j-particle word broadcast per 15 MHz cycle feeds 6 interactions per
// pipeline and the peak rate is 32 pipelines * 90 MHz = 2.88e9
// interactions/s = 109.44 Gflops at 38 flops per interaction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace g5::grape {

/// Counting convention for flops per pairwise interaction (Warren & Salmon;
/// used by the paper's Gflops numbers).
inline constexpr double kFlopsPerInteraction = 38.0;

/// The block-sharding rule for distributing nj j-particles over `boards`
/// boards: each board takes a contiguous block of up to ceil(nj/boards)
/// particles. The one definition shared by the timing model
/// (TimingModel::j_per_board) and the evaluation layer
/// (Grape5System::compute_raw), so the modeled compute time and the
/// emulated shard sizes cannot drift apart.
[[nodiscard]] constexpr std::size_t shard_share(std::size_t nj,
                                                std::size_t boards) noexcept {
  return boards == 0 ? nj : (nj + boards - 1) / boards;
}

/// Arithmetic backend of the force pipelines.
enum class BackendKind : std::uint8_t {
  /// Bit-level emulation of the GRAPE-5 datapath: fixed-point coordinates,
  /// LNS multiplicative core, fixed-point accumulators. The default, and
  /// the backend every golden / determinism / probe-calibration number in
  /// this repo refers to.
  BitExact,
  /// Plain double arithmetic on the same quantized coordinates, into the
  /// same fixed-point accumulators on the same quanta: same interactions,
  /// same i == j cut. The one double-precision datapath — the ablations'
  /// "standard 64-bit floating point" row ("the relative accuracy was
  /// practically the same") and the emulator's fast path. Codec error
  /// vanishes (probe reports g5.err.codec ~ 0); tree error is untouched.
  /// About 3x faster than BitExact per interaction (both vectorized).
  Native,
};

[[nodiscard]] constexpr std::string_view backend_name(BackendKind k) noexcept {
  return k == BackendKind::Native ? "native" : "bit-exact";
}

/// Parse a --backend style name; returns false on an unknown name.
[[nodiscard]] constexpr bool parse_backend(std::string_view name,
                                           BackendKind& out) noexcept {
  if (name == "bit-exact" || name == "bitexact") {
    out = BackendKind::BitExact;
    return true;
  }
  if (name == "native") {
    out = BackendKind::Native;
    return true;
  }
  return false;
}

struct PipelineNumerics {
  /// Fixed-point bits for particle coordinates (per component).
  int position_bits = 32;
  /// Fraction bits of the logarithmic format used by the multiplicative
  /// datapath.
  int lns_frac_bits = 8;
  /// Fraction bits of the r^(-3/2) table index; 0 = full lns resolution.
  /// 8 lns bits + a 7-bit table index reproduces GRAPE-5's "about 0.3 %"
  /// rms pairwise force error (0.35 % measured over log-uniform pair
  /// geometries; tests/grape_pipeline_test.cpp pins the calibration and
  /// bench_e3_accuracy sweeps it).
  int table_index_bits = 7;
  /// Arithmetic backend of the pipeline datapath (see BackendKind).
  BackendKind backend = BackendKind::BitExact;

  /// A GRAPE-3-class datapath: the previous machine in the lineage, with
  /// an ~2 % pairwise force error (8-bit-era log format, narrower
  /// positions). Used by the generation-ablation bench.
  static PipelineNumerics grape3() {
    PipelineNumerics n;
    n.position_bits = 20;
    n.lns_frac_bits = 5;
    n.table_index_bits = 0;
    return n;
  }
};

struct BoardConfig {
  std::size_t chips = 8;
  std::size_t pipelines_per_chip = 2;
  /// Virtual multiple pipeline factor: i-particles resident per pipeline.
  std::size_t vmp_factor = 6;
  /// Capacity of the on-board particle (j) memory, in particles.
  std::size_t jmem_capacity = 131072;
  double pipeline_clock_hz = 90.0e6;
  double memory_clock_hz = 15.0e6;

  [[nodiscard]] std::size_t pipelines() const {
    return chips * pipelines_per_chip;
  }
  /// i-particles processed concurrently by one board.
  [[nodiscard]] std::size_t i_slots() const {
    return pipelines() * vmp_factor;
  }
};

struct HostInterfaceConfig {
  /// Sustained host <-> board DMA bandwidth (bytes/s). GRAPE-5's host
  /// interface board sits on 32-bit/33 MHz PCI; sustained DMA is well below
  /// the 132 MB/s burst figure.
  double bandwidth_bytes_per_s = 70.0e6;
  /// Fixed per-transfer latency (driver call + DMA setup), seconds.
  double latency_s = 15.0e-6;
  /// Bytes per j-particle word (3 coords + mass as packed words).
  std::size_t bytes_per_j = 16;
  /// Bytes per i-particle position.
  std::size_t bytes_per_i = 12;
  /// Bytes returned per force result (acc x/y/z + potential).
  std::size_t bytes_per_result = 16;
};

struct SystemConfig {
  std::size_t boards = 2;
  BoardConfig board{};
  HostInterfaceConfig hib{};
  PipelineNumerics numerics{};

  [[nodiscard]] std::size_t total_pipelines() const {
    return boards * board.pipelines();
  }
  /// Peak interaction rate (interactions/s).
  [[nodiscard]] double peak_interaction_rate() const {
    return static_cast<double>(total_pipelines()) * board.pipeline_clock_hz;
  }
  /// Theoretical peak in flops/s (the paper: 109.44e9).
  [[nodiscard]] double peak_flops() const {
    return peak_interaction_rate() * kFlopsPerInteraction;
  }
  /// Total j-memory across boards.
  [[nodiscard]] std::size_t total_jmem() const {
    return boards * board.jmem_capacity;
  }

  /// The configuration used for the paper's run.
  static SystemConfig paper_system() { return SystemConfig{}; }

  /// A GRAPE-3-class system for lineage ablations: one board of 8
  /// single-pipeline chips at 20 MHz with the low-precision datapath
  /// (~4.8 Gflops-equivalent peak at the 38-op convention; the real
  /// GRAPE-3 predates that counting, so treat it as a class stand-in).
  static SystemConfig grape3_system() {
    SystemConfig cfg;
    cfg.boards = 1;
    cfg.board.chips = 8;
    cfg.board.pipelines_per_chip = 1;
    cfg.board.vmp_factor = 1;
    cfg.board.pipeline_clock_hz = 20.0e6;
    cfg.board.memory_clock_hz = 20.0e6;
    cfg.board.jmem_capacity = 65536;
    cfg.numerics = PipelineNumerics::grape3();
    return cfg;
  }
};

/// Cost model from Section 4 of the paper.
struct CostModel {
  double board_price_jpy = 1.65e6;   ///< per GRAPE-5 board
  std::size_t boards = 2;
  double host_price_jpy = 1.4e6;     ///< AlphaServer DS10 + memory + compiler
  double jpy_per_usd = 115.0;

  [[nodiscard]] double total_jpy() const {
    return board_price_jpy * static_cast<double>(boards) + host_price_jpy;
  }
  [[nodiscard]] double total_usd() const { return total_jpy() / jpy_per_usd; }

  /// Price/performance in $/Mflops for a sustained rate in flops/s.
  [[nodiscard]] double usd_per_mflops(double sustained_flops) const {
    return total_usd() / (sustained_flops / 1.0e6);
  }
};

}  // namespace g5::grape
