#include "core/session.hpp"

#include <stdexcept>
#include <string>

#include "core/engine.hpp"

namespace jsi::core {

using util::BitVec;

namespace {

/// Throw std::invalid_argument naming `flow` unless `soc` has one bus:
/// the conventional and parallel-victim flows, and run()'s one-report
/// result, are single-bus features.
void require_single_bus(const SiSocDevice& soc, const char* flow) {
  if (soc.n_buses() != 1) {
    throw std::invalid_argument(std::string(flow) +
                                " needs a one-bus SoC; this one has " +
                                std::to_string(soc.n_buses()) + " buses");
  }
}

/// Execute `p` against `soc` through `master`, bracketed by the session's
/// SessionBegin/End spans named `kind`.
MultiBusReport execute_plan(jtag::TapMaster& master, SiSocDevice& soc,
                            obs::Sink* sink, const TestPlan& p,
                            const char* kind) {
  TestPlanEngine engine(master, &soc);
  engine.set_sink(sink);
  obs::emit_span(sink, obs::EventKind::SessionBegin, kind, master.tck());
  EngineResult res = engine.execute(p);
  MultiBusReport r;
  r.buses = std::move(res.reports);
  r.total_tcks = res.total_tcks;
  r.generation_tcks = res.generation_tcks;
  r.observation_tcks = res.observation_tcks;
  obs::emit_span(sink, obs::EventKind::SessionEnd, kind, master.tck(),
                 res.total_tcks);
  return r;
}

/// The one bus's report of a single-bus session, carrying the session's
/// clock counts.
IntegrityReport single_bus_report(MultiBusReport r) {
  IntegrityReport rep = std::move(r.buses.front());
  rep.total_tcks = r.total_tcks;
  rep.generation_tcks = r.generation_tcks;
  rep.observation_tcks = r.observation_tcks;
  return rep;
}

}  // namespace

bool MultiBusReport::any_violation() const {
  for (const auto& b : buses) {
    if (b.any_violation()) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// SiTestSession
// ---------------------------------------------------------------------------

SiTestSession::SiTestSession(SiSocDevice& soc)
    : SiTestSession(soc, soc.tap()) {}

SiTestSession::SiTestSession(SiSocDevice& soc, jtag::TapPort& port)
    : soc_(&soc), master_(port) {
  if (!soc.config().enhanced) {
    throw std::invalid_argument(
        "SiTestSession needs the enhanced (PGBSC/OBSC) architecture");
  }
}

TestPlan SiTestSession::plan(ObservationMethod method) const {
  const SocConfig& cfg = soc_->config();
  return plan_enhanced_session(cfg.n_wires, cfg.m_extra_cells, cfg.ir_width,
                               method, cfg.n_buses);
}

TestPlan SiTestSession::plan_parallel(ObservationMethod method,
                                      std::size_t guard) const {
  require_single_bus(*soc_, "the parallel-victim session");
  const SocConfig& cfg = soc_->config();
  return plan_parallel_victims(cfg.n_wires, cfg.m_extra_cells, cfg.ir_width,
                               method, guard);
}

void SiTestSession::set_sink(obs::Sink* sink) {
  sink_ = sink;
  master_.set_sink(sink);
  soc_->set_sink(sink);
}

IntegrityReport SiTestSession::run(ObservationMethod method) {
  require_single_bus(*soc_, "SiTestSession::run");
  return single_bus_report(
      execute_plan(master_, *soc_, sink_, plan(method), "enhanced"));
}

IntegrityReport SiTestSession::run_parallel(ObservationMethod method,
                                            std::size_t guard) {
  return single_bus_report(execute_plan(
      master_, *soc_, sink_, plan_parallel(method, guard), "parallel"));
}

MultiBusReport SiTestSession::run_buses(ObservationMethod method) {
  return execute_plan(master_, *soc_, sink_, plan(method), "multibus");
}

// ---------------------------------------------------------------------------
// ConventionalSession
// ---------------------------------------------------------------------------

ConventionalSession::ConventionalSession(SiSocDevice& soc)
    : soc_(&soc), master_(soc.tap()) {
  if (soc.config().enhanced) {
    throw std::invalid_argument(
        "ConventionalSession expects SocConfig::enhanced == false");
  }
}

TestPlan ConventionalSession::plan(ObservationMethod method) const {
  require_single_bus(*soc_, "the conventional session");
  const SocConfig& cfg = soc_->config();
  return plan_conventional_session(cfg.n_wires, cfg.m_extra_cells,
                                   cfg.ir_width, method);
}

void ConventionalSession::set_sink(obs::Sink* sink) {
  sink_ = sink;
  master_.set_sink(sink);
  soc_->set_sink(sink);
}

IntegrityReport ConventionalSession::run(ObservationMethod method) {
  return single_bus_report(
      execute_plan(master_, *soc_, sink_, plan(method), "conventional"));
}

}  // namespace jsi::core
