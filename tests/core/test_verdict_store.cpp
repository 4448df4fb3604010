// Device-level differential tests for the waveform store's per-slot
// ND/SD verdict records: a full SiSocDevice session latches the same
// sensor flags (and reads them out identically) with the store on as
// with it off, where every wire is solved into scratch and scanned.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/session.hpp"
#include "si/bus.hpp"
#include "util/prng.hpp"

namespace jsi::core {
namespace {

/// A sampled die: +/-8% process variation on drive strength and wire RC
/// (as in scenarios/yield_mc_sweep) plus one crosstalk defect, with
/// random ND/SD thresholds.
SocConfig random_die(util::Prng& rng) {
  SocConfig cfg;
  cfg.n_wires = 8;
  auto vary = [&](double& x) {
    x *= std::max(0.05, 1.0 + 0.08 * rng.next_normal());
  };
  vary(cfg.bus.r_driver);
  vary(cfg.bus.r_wire);
  vary(cfg.bus.c_couple);
  cfg.nd.v_hthr_frac = 0.1 + 0.6 * rng.next_double();
  cfg.nd.v_hmin_frac = cfg.nd.v_hthr_frac * rng.next_double();
  cfg.nd.overshoot_frac = rng.next_bool(0.2) ? 0.0 : 0.3 * rng.next_double();
  cfg.sd.skew_budget = static_cast<sim::Time>(60 + rng.next_below(300));
  cfg.sd.vth_frac = 0.3 + 0.4 * rng.next_double();
  return cfg;
}

IntegrityReport run_session(const SocConfig& cfg, si::CoupledBus& bus,
                            ObservationMethod method) {
  SiSocDevice soc(cfg, bus);
  SiTestSession session(soc);
  return session.run(method);
}

TEST(VerdictStore, SessionFlagsMatchTheStoreOffScan) {
  util::Prng rng(0xF1A65u);
  std::size_t flagged = 0;
  for (int die = 0; die < 12; ++die) {
    SCOPED_TRACE(die);
    const SocConfig cfg = random_die(rng);
    const std::size_t wire = rng.next_below(cfg.n_wires);
    const double severity = 1.0 + 7.0 * rng.next_double();
    const ObservationMethod method = die % 2 == 0
                                         ? ObservationMethod::OnceAtEnd
                                         : ObservationMethod::PerPattern;
    si::CoupledBus stored(effective_bus_params(cfg));
    si::CoupledBus scanned(effective_bus_params(cfg));
    for (si::CoupledBus* b : {&stored, &scanned}) {
      b->inject_crosstalk_defect(wire, severity);
    }
    scanned.set_cache_enabled(false);

    const IntegrityReport want = run_session(cfg, scanned, method);
    const IntegrityReport got = run_session(cfg, stored, method);
    EXPECT_EQ(format_report(got), format_report(want));
    EXPECT_EQ(got.nd_final, want.nd_final);
    EXPECT_EQ(got.sd_final, want.sd_final);
    // A second session on the same bus starts from records the first
    // one filled.
    const IntegrityReport again = run_session(cfg, stored, method);
    EXPECT_EQ(format_report(again), format_report(want));
    if (want.any_violation()) ++flagged;
  }
  EXPECT_GT(flagged, 0u) << "some sampled dies must flag";
  EXPECT_LT(flagged, 12u) << "some sampled dies must pass";
}

TEST(VerdictStore, BorrowedBusServesEachDeviceItsOwnParams) {
  // One external bus, borrowed in turn by two devices whose ND (then SD)
  // params disagree on a defective die: each device must latch the flags
  // its own params give, not the previous borrower's.
  SocConfig tight;
  tight.n_wires = 8;
  tight.nd.v_hthr_frac = 0.08;
  tight.nd.v_hmin_frac = 0.03;
  tight.sd.skew_budget = 60 * sim::kPs;
  SocConfig loose = tight;
  loose.nd.v_hthr_frac = 0.6;
  loose.nd.v_hmin_frac = 0.2;
  loose.sd.skew_budget = 400 * sim::kPs;

  for (const bool tight_first : {true, false}) {
    SCOPED_TRACE(tight_first);
    si::CoupledBus shared(effective_bus_params(tight));
    shared.inject_crosstalk_defect(3, 1.5);
    const SocConfig& first = tight_first ? tight : loose;
    const SocConfig& second = tight_first ? loose : tight;

    auto reference = [&](const SocConfig& cfg) {
      si::CoupledBus bus(effective_bus_params(cfg));
      bus.inject_crosstalk_defect(3, 1.5);
      bus.set_cache_enabled(false);
      return run_session(cfg, bus, ObservationMethod::OnceAtEnd);
    };
    const IntegrityReport want1 = reference(first);
    const IntegrityReport want2 = reference(second);
    ASSERT_NE(want1.nd_final, want2.nd_final) << "the ND params must matter";
    ASSERT_NE(want1.sd_final, want2.sd_final) << "the SD params must matter";

    const IntegrityReport got1 =
        run_session(first, shared, ObservationMethod::OnceAtEnd);
    const IntegrityReport got2 =
        run_session(second, shared, ObservationMethod::OnceAtEnd);
    EXPECT_EQ(format_report(got1), format_report(want1));
    EXPECT_EQ(format_report(got2), format_report(want2));
  }
}

}  // namespace
}  // namespace jsi::core
