// Multi-bus SoC: SiSocDevice with SocConfig::n_buses > 1, tested by
// SiTestSession::run_buses.
#include <gtest/gtest.h>

#include <set>

#include "analysis/time_model.hpp"
#include "core/bist.hpp"
#include "core/session.hpp"
#include "mafm/schedule.hpp"

namespace jsi::core {
namespace {

SocConfig cfg(std::size_t buses, std::size_t wires) {
  SocConfig c;
  c.n_buses = buses;
  c.n_wires = wires;
  return c;
}

TEST(MultiBusSoc, ChainLayout) {
  SiSocDevice soc(cfg(3, 4));
  EXPECT_EQ(soc.chain_length(), 2u * 3 * 4 + 1);
  EXPECT_EQ(soc.n_buses(), 3u);
  EXPECT_EQ(soc.config().n_wires, 4u);
}

TEST(MultiBusSoc, RejectsDegenerateConfigs) {
  EXPECT_THROW(SiSocDevice soc(cfg(0, 4)), std::invalid_argument);
  EXPECT_THROW(SiSocDevice soc(cfg(2, 1)), std::invalid_argument);
}

TEST(MultiBusSession, HealthyBusesAllClean) {
  SiSocDevice soc(cfg(3, 5));
  SiTestSession session(soc);
  const auto r = session.run_buses(ObservationMethod::OnceAtEnd);
  EXPECT_FALSE(r.any_violation());
  ASSERT_EQ(r.buses.size(), 3u);
  for (const auto& b : r.buses) {
    EXPECT_EQ(b.patterns.size(), 2u * (4 * 5 + 1));
  }
}

TEST(MultiBusSession, EveryBusReceivesTheFullFaultSet) {
  // The parallel rotation must give every victim of every bus all six MA
  // faults, exactly like the single-bus flow.
  const std::size_t n = 4, nb = 3;
  SiSocDevice soc(cfg(nb, n));
  SiTestSession session(soc);
  const auto r = session.run_buses(ObservationMethod::OnceAtEnd);
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t v = 0; v < n; ++v) {
      std::set<mafm::MaFault> got;
      for (const auto& p : r.buses[b].patterns) {
        if (p.victim == v && p.fault) got.insert(*p.fault);
      }
      EXPECT_EQ(got.size(), 6u) << "bus " << b << " victim " << v;
    }
  }
}

TEST(MultiBusSession, PatternsMatchSingleBusReference) {
  // Every bus must generate the same golden sequence as a lone bus
  // (ignoring the final cross-block rotation step, whose vector differs
  // because the neighbouring block's hot bit arrives).
  const std::size_t n = 5, nb = 2;
  SiSocDevice soc(cfg(nb, n));
  SiTestSession session(soc);
  const auto r = session.run_buses(ObservationMethod::OnceAtEnd);
  for (int block = 0; block < 2; ++block) {
    const auto ref = mafm::pgbsc_reference_sequence(n, block != 0);
    for (std::size_t b = 0; b < nb; ++b) {
      for (std::size_t i = 0; i + 1 < ref.size(); ++i) {
        const auto& got = r.buses[b].patterns[block * ref.size() + i];
        EXPECT_EQ(got.after.to_string(), ref[i].vector.to_string())
            << "bus " << b << " block " << block << " step " << i;
        EXPECT_EQ(got.fault, ref[i].fault);
      }
    }
  }
}

TEST(MultiBusSession, DefectsLocalizedToTheRightBus) {
  SiSocDevice soc(cfg(3, 6));
  soc.bus(0).inject_crosstalk_defect(2, 6.0);
  soc.bus(2).add_series_resistance(4, 900.0);
  SiTestSession session(soc);
  const auto r = session.run_buses(ObservationMethod::OnceAtEnd);
  EXPECT_TRUE(r.buses[0].nd_final[2]);
  EXPECT_TRUE(r.buses[2].sd_final[4]);
  // Bus 1 is healthy and must stay silent.
  EXPECT_EQ(r.buses[1].nd_final.popcount(), 0u);
  EXPECT_EQ(r.buses[1].sd_final.popcount(), 0u);
}

TEST(MultiBusSession, ScanOutMatchesGroundTruth) {
  SiSocDevice soc(cfg(2, 5));
  soc.bus(1).inject_crosstalk_defect(3, 6.0);
  SiTestSession session(soc);
  const auto r = session.run_buses(ObservationMethod::OnceAtEnd);
  for (std::size_t b = 0; b < 2; ++b) {
    ASSERT_EQ(r.buses[b].readouts.size(), 1u);
    EXPECT_EQ(r.buses[b].readouts[0].nd.to_string(),
              soc.nd_flags(b).to_string())
        << "bus " << b;
    EXPECT_EQ(r.buses[b].readouts[0].sd.to_string(),
              soc.sd_flags(b).to_string());
  }
}

TEST(MultiBusSession, ParallelismMakesGenerationNearlyFlatInBusCount) {
  // Pattern updates do not grow with B; only the scans (chain length) do.
  // Testing 4 buses in parallel must cost far less than 4 separate
  // single-bus sessions.
  const std::size_t n = 8;
  std::uint64_t parallel4;
  {
    SiSocDevice soc(cfg(4, n));
    SiTestSession session(soc);
    parallel4 = session.run_buses(ObservationMethod::OnceAtEnd).total_tcks;
  }
  std::uint64_t single;
  {
    SocConfig sc;
    sc.n_wires = n;
    SiSocDevice soc(sc);
    SiTestSession session(soc);
    single = session.run(ObservationMethod::OnceAtEnd).total_tcks;
  }
  EXPECT_LT(parallel4, 4 * single);
  EXPECT_LT(parallel4, 2 * single);  // in fact close to 1x plus scan growth
}

TEST(MultiBusSession, PerInitValueMethodWorks) {
  SiSocDevice soc(cfg(2, 4));
  soc.bus(0).inject_crosstalk_defect(1, 6.0);
  SiTestSession session(soc);
  const auto r = session.run_buses(ObservationMethod::PerInitValue);
  EXPECT_EQ(r.buses[0].readouts.size(), 2u);
  EXPECT_TRUE(r.buses[0].nd_final[1]);
}

TEST(MultiBusSession, PerPatternRejected) {
  SiSocDevice soc(cfg(2, 4));
  SiTestSession session(soc);
  EXPECT_THROW(session.run_buses(ObservationMethod::PerPattern),
               std::invalid_argument);
}

class MultiBusClockCounts
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(MultiBusClockCounts, MeasuredTcksMatchClosedForm) {
  const auto [buses, n] = GetParam();
  SiSocDevice soc(cfg(buses, n));
  SiTestSession session(soc);
  analysis::TimeModel model{n, 1, 4};

  const auto r1 = session.run_buses(ObservationMethod::OnceAtEnd);
  EXPECT_EQ(r1.generation_tcks, model.multibus_generation(buses));
  EXPECT_EQ(r1.observation_tcks, model.multibus_readout(buses));

  const auto r2 = session.run_buses(ObservationMethod::PerInitValue);
  EXPECT_EQ(r2.observation_tcks, 2 * model.multibus_readout(buses));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiBusClockCounts,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 4),
                       ::testing::Values<std::size_t>(4, 8)));

TEST(MultiBusSession, SingleBusDegeneratesToSiTestSessionCounts) {
  // B=1 must cost exactly what the single-bus session costs (generation).
  const std::size_t n = 6;
  SiSocDevice msoc(cfg(1, n));
  SiTestSession msession(msoc);
  const auto mr = msession.run_buses(ObservationMethod::OnceAtEnd);

  analysis::TimeModel model{n, 1, 4};
  EXPECT_EQ(mr.generation_tcks, model.pgbsc_generation());
  EXPECT_EQ(mr.observation_tcks,
            model.enhanced_observation(ObservationMethod::OnceAtEnd));
}

TEST(MultiBusSession, BackToBackRunsReportEqualTransitionCounts) {
  // Each run starts with a TAP reset, which zeroes the transition count:
  // a second session on the same device must not report the first one's
  // transitions on top of its own.
  SiSocDevice soc(cfg(2, 4));
  SiTestSession session(soc);
  session.run_buses(ObservationMethod::OnceAtEnd);
  const std::uint64_t first = soc.bus_transitions();
  session.run_buses(ObservationMethod::OnceAtEnd);
  EXPECT_GT(first, 0u);
  EXPECT_EQ(soc.bus_transitions(), first);
}

TEST(MultiBusSoc, UnsupportedFlowsThrowTypedErrors) {
  SiSocDevice soc(cfg(2, 4));
  SiTestSession session(soc);
  EXPECT_THROW(session.run(ObservationMethod::OnceAtEnd),
               std::invalid_argument);
  EXPECT_THROW(session.run_parallel(ObservationMethod::OnceAtEnd, 2),
               std::invalid_argument);
  EXPECT_THROW(SiBistController{soc}, std::invalid_argument);

  SocConfig conv = cfg(2, 4);
  conv.enhanced = false;
  SiSocDevice csoc(conv);
  ConventionalSession csession(csoc);
  EXPECT_THROW(csession.run(ObservationMethod::OnceAtEnd),
               std::invalid_argument);
}

TEST(MultiBusSoc, BorrowsBusZeroAndOwnsClonesOfIt) {
  si::BusParams p;
  p.n_wires = 4;
  si::CoupledBus bus(p);
  SiSocDevice soc(cfg(3, 4), bus);
  EXPECT_EQ(&soc.bus(0), &bus);
  EXPECT_NE(&soc.bus(1), &bus);
  EXPECT_NE(&soc.bus(1), &soc.bus(2));
  EXPECT_THROW(soc.bus(3), std::out_of_range);
  // A defect injected into one bus stays on that bus.
  soc.bus(2).inject_crosstalk_defect(1, 6.0);
  SiTestSession session(soc);
  const auto r = session.run_buses(ObservationMethod::OnceAtEnd);
  EXPECT_FALSE(r.buses[0].any_violation());
  EXPECT_FALSE(r.buses[1].any_violation());
  EXPECT_TRUE(r.buses[2].nd_final[1]);
}

TEST(MultiBusSoc, EventsCarryBusIdsOnlyWithSeveralBuses) {
  class Capture final : public obs::Sink {
   public:
    std::set<std::int64_t> transition_a, detector_b;
    void on_event(const obs::Event& e) override {
      if (e.kind == obs::EventKind::BusTransition) transition_a.insert(e.a);
      if (e.kind == obs::EventKind::DetectorFired) detector_b.insert(e.b);
    }
  };
  for (const std::size_t buses : {1u, 2u}) {
    SCOPED_TRACE(buses);
    SiSocDevice soc(cfg(buses, 4));
    for (std::size_t b = 0; b < buses; ++b) {
      soc.bus(b).inject_crosstalk_defect(1, 6.0);
    }
    Capture cap;
    SiTestSession session(soc);
    session.set_sink(&cap);
    session.run_buses(ObservationMethod::OnceAtEnd);
    if (buses == 1) {
      // The paper's one-bus SoC keeps its historic event ids.
      EXPECT_EQ(cap.transition_a, (std::set<std::int64_t>{0}));
      EXPECT_EQ(cap.detector_b, (std::set<std::int64_t>{-1}));
    } else {
      EXPECT_EQ(cap.transition_a, (std::set<std::int64_t>{0, 1}));
      EXPECT_EQ(cap.detector_b, (std::set<std::int64_t>{0, 1}));
    }
  }
}

TEST(MultiBusSession, SingleBusRunBusesMatchesRun) {
  // On one bus run_buses executes exactly the plan run() executes.
  SiSocDevice a(cfg(1, 5));
  SiSocDevice b(cfg(1, 5));
  a.bus().inject_crosstalk_defect(2, 6.0);
  b.bus().inject_crosstalk_defect(2, 6.0);
  SiTestSession sa(a);
  SiTestSession sb(b);
  const IntegrityReport r = sa.run(ObservationMethod::PerInitValue);
  const MultiBusReport m = sb.run_buses(ObservationMethod::PerInitValue);
  ASSERT_EQ(m.buses.size(), 1u);
  EXPECT_EQ(m.total_tcks, r.total_tcks);
  EXPECT_EQ(m.buses[0].patterns.size(), r.patterns.size());
  EXPECT_EQ(m.buses[0].nd_final.to_string(), r.nd_final.to_string());
  EXPECT_EQ(m.buses[0].sd_final.to_string(), r.sd_final.to_string());
  EXPECT_EQ(a.bus_transitions(), b.bus_transitions());
}

}  // namespace
}  // namespace jsi::core
