#ifndef JSI_CORE_SESSION_HPP
#define JSI_CORE_SESSION_HPP

#include <cstdint>
#include <vector>

#include "core/plan.hpp"
#include "core/report.hpp"
#include "core/soc.hpp"
#include "jtag/master.hpp"

namespace jsi::core {

/// Per-bus outcome of a multi-bus session (SiTestSession::run_buses).
struct MultiBusReport {
  std::vector<IntegrityReport> buses;  ///< per-bus patterns/flags
  std::uint64_t total_tcks = 0;
  std::uint64_t generation_tcks = 0;
  std::uint64_t observation_tcks = 0;

  bool any_violation() const;
};

/// The enhanced-architecture test session (paper Fig 12):
///
///   for k in {0, 1}:
///     load SAMPLE/PRELOAD, scan initial value k into the chain   (FF2 <- k,
///                                                                 FF3 re-armed)
///     load G-SITEST                              (pins take the initial value)
///     scan the victim-select one-hot             (its Update-DR fires the
///                                                 first pattern)
///     for each victim: three bare Update-DR passes, then a one-bit
///       victim-rotate scan (whose Update-DR fires the next victim's first
///       pattern)
///   load O-SITEST and read the ND then SD flags out      (method-dependent:
///       once, per block, or after every pattern with a G-SITEST resume)
///
/// Since the engine refactor this class is a thin *planner*: it emits the
/// op sequence above as a core::TestPlan (see `plan`) and delegates the
/// TAP drive loop to the shared TestPlanEngine. Every TCK is issued
/// through a TapMaster, so the report's clock counts are measured, not
/// modeled.
class SiTestSession {
 public:
  explicit SiTestSession(SiSocDevice& soc);

  /// Drive through an interposed port (e.g. a jtag::ProtocolMonitor
  /// wrapping `soc.tap()`), so a session can be protocol-checked or
  /// traced. `port` must forward to the same device.
  SiTestSession(SiSocDevice& soc, jtag::TapPort& port);

  /// Run the full session and return the report. Resets the TAP first, so
  /// back-to-back runs are independent. Needs a one-bus SoC (throws
  /// std::invalid_argument otherwise; see run_buses).
  IntegrityReport run(ObservationMethod method);

  /// The same Fig 12 flow over every bus of the SoC at once: one preload,
  /// one G-SITEST, one victim-select scan placing a hot bit in every
  /// bus's PGBSC block, then the shared 3-updates-plus-rotate loop, so
  /// pattern application costs what a single bus costs and only the scans
  /// grow with the chain. One O-SITEST pass pair reads every OBSC.
  /// Methods 1 and 2 on a multi-bus SoC (per-pattern read-out throws
  /// std::invalid_argument); session name "multibus".
  MultiBusReport run_buses(ObservationMethod method);

  /// Parallel multi-victim extension: victims spaced `guard` wires apart
  /// are selected together (the PGBSC victim-select word is multi-hot),
  /// cutting the Update-DR count per block from 4n+1 to 4*guard+1. Valid
  /// under nearest-neighbour-dominated coupling — every victim's adjacent
  /// wires are still proper aggressors (see
  /// mafm::parallel_victim_rounds). Supports observation methods 1 and 2;
  /// per-pattern read-out remains a single-victim feature. Recorded
  /// patterns carry victim == n (use mafm::classify_neighborhood on
  /// before/after for per-victim analysis). Single-bus SoCs only.
  IntegrityReport run_parallel(ObservationMethod method, std::size_t guard);

  /// The plan `run(method)` / `run_buses(method)` executes, covering every
  /// bus of the SoC (dry-run it with core::dry_run_cost for the exact TCK
  /// budget without touching the simulator).
  TestPlan plan(ObservationMethod method) const;

  /// The plan `run_parallel(method, guard)` executes.
  TestPlan plan_parallel(ObservationMethod method, std::size_t guard) const;

  /// The TCK-counting master (exposed for tests).
  jtag::TapMaster& master() { return master_; }

  /// Attach an observability sink to the whole session: the TAP master
  /// (StateEdge per TCK), the SoC model (bus/detector records), the
  /// engine (plan/op spans), and the session itself (SessionBegin/End,
  /// name "enhanced", "parallel" or "multibus"). nullptr detaches
  /// everything.
  void set_sink(obs::Sink* sink);

 private:
  SiSocDevice* soc_;
  jtag::TapMaster master_;
  obs::Sink* sink_ = nullptr;
};

/// The conventional-BSA baseline (paper §3.1 / Table 5): every one of the
/// 12 MA vectors per victim is scanned through the full chain and applied
/// with Update-DR. Works on a SoC built with `SocConfig::enhanced ==
/// false` (standard cells on the sending side). Observation uses the same
/// O-SITEST read-out so only the pattern-application cost differs.
/// Single-bus SoCs only.
class ConventionalSession {
 public:
  explicit ConventionalSession(SiSocDevice& soc);

  IntegrityReport run(ObservationMethod method);

  /// The plan `run(method)` executes.
  TestPlan plan(ObservationMethod method) const;

  jtag::TapMaster& master() { return master_; }

  /// Attach an observability sink (session name "conventional").
  void set_sink(obs::Sink* sink);

 private:
  SiSocDevice* soc_;
  jtag::TapMaster master_;
  obs::Sink* sink_ = nullptr;
};

}  // namespace jsi::core

#endif  // JSI_CORE_SESSION_HPP
