#ifndef JSI_ANALYSIS_TIME_MODEL_HPP
#define JSI_ANALYSIS_TIME_MODEL_HPP

#include <cstdint>

#include "core/report.hpp"
#include "jtag/master.hpp"

namespace jsi::analysis {

/// Closed-form TCK budgets for the two architectures and three observation
/// methods (paper Tables 5-6).
///
/// These formulas mirror the exact protocol the sessions drive through the
/// TapMaster; unit tests assert formula == measured count for a grid of
/// (n, m), so the analytic O(n) / O(n²) claims in the paper are backed by
/// the cycle-accurate simulation.
///
/// Primitive costs (from the TAP FSM, all starting and ending in
/// Run-Test/Idle):
///   * TMS reset + idle entry ... 6 TCKs
///   * IR scan of w bits ........ w + 6 TCKs
///   * DR scan of L bits ........ L + 5 TCKs
///   * bare Update-DR pass ...... 5 TCKs
struct TimeModel {
  std::size_t n;         ///< interconnects under test
  std::size_t m = 1;     ///< extra standard cells in the chain
  std::size_t ir_w = 4;  ///< instruction-register width

  /// Boundary chain length 2n+m.
  std::uint64_t chain() const { return 2 * n + m; }

  static std::uint64_t reset_clocks() { return jtag::TapMaster::kResetToIdleTcks; }
  std::uint64_t ir_scan() const {
    return ir_w + jtag::TapMaster::kIrScanOverhead;
  }
  static std::uint64_t dr_scan(std::uint64_t bits) {
    return bits + jtag::TapMaster::kDrScanOverhead;
  }
  static std::uint64_t update_pulse() {
    return jtag::TapMaster::kUpdatePulseTcks;
  }

  /// Pattern-generation clocks of the enhanced (PGBSC) flow: reset, then
  /// per initial-value block a SAMPLE preload, the G-SITEST load, the
  /// victim-select scan, and per victim three update pulses plus a one-bit
  /// rotate scan. O(n).
  std::uint64_t pgbsc_generation() const;

  /// Pattern-application clocks of the conventional flow: reset, one
  /// instruction load, then 12 full-chain scans per victim. O(n²).
  std::uint64_t conventional_generation() const;

  /// Generation clocks of the parallel multi-victim extension: the
  /// per-round loop runs `guard` times instead of n (see
  /// SiTestSession::run_parallel).
  std::uint64_t pgbsc_parallel_generation(std::size_t guard) const;

  /// Generation clocks of the parallel multi-bus session over `buses`
  /// equal-width buses (chain 2*B*n+m, select scan B*n bits, shared
  /// per-victim loop; see core::SiTestSession::run_buses).
  std::uint64_t multibus_generation(std::size_t buses) const;

  /// One multi-bus read-out (no resume): IR load + ND and SD passes over
  /// the 2*B*n+m chain.
  std::uint64_t multibus_readout(std::size_t buses) const;

  /// One O-SITEST read-out: instruction load + an ND and an SD pass
  /// (+ G-SITEST reload when generation resumes afterwards).
  std::uint64_t readout(bool resume) const;

  /// Observation clocks for the enhanced flow (Table 6: k read-out
  /// repetitions; the paper evaluates k=1).
  std::uint64_t enhanced_observation(core::ObservationMethod method,
                                     std::uint64_t k = 1) const;

  /// Observation clocks for the conventional flow (method 2 degenerates to
  /// one read-out per victim; see ConventionalSession).
  std::uint64_t conventional_observation(core::ObservationMethod method,
                                         std::uint64_t k = 1) const;

  /// Total session clocks (generation + observation).
  std::uint64_t enhanced_total(core::ObservationMethod method) const;
  std::uint64_t conventional_total(core::ObservationMethod method) const;

  /// The paper's T% improvement row: 1 - enhanced/conventional (pattern
  /// generation only, as in Table 5).
  double generation_improvement() const;
};

}  // namespace jsi::analysis

#endif  // JSI_ANALYSIS_TIME_MODEL_HPP
