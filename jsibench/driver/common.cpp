#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "analysis/time_model.hpp"
#include "core/plan.hpp"
#include "scenario/build.hpp"
#include "scenario/sweep.hpp"

namespace jsib {

namespace sc = jsi::scenario;

Manifest load_manifest(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read manifest " + path);
  Manifest m;
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    std::string rest;
    std::getline(ls >> std::ws, rest);
    std::istringstream vs(rest);
    if (key == "seed") {
      vs >> m.seed;
    } else if (key == "input") {
      m.inputs.push_back(rest);
    } else if (key == "job") {
      m.jobs.push_back(rest);
    } else if (key == "shards") {
      vs >> m.shards;
    } else if (key == "checkpoint") {
      vs >> m.checkpoint;
    } else if (key == "pool") {
      vs >> m.pool;
    } else if (key == "clients") {
      vs >> m.clients;
    } else if (key == "block") {
      vs >> m.block;
    } else if (key == "rates") {
      vs >> m.low_rate >> m.high_rate;
    } else if (key == "order") {
      std::size_t i = 0;
      while (vs >> i) m.order.push_back(i);
    } else {
      throw std::runtime_error("manifest: unknown key " + key);
    }
  }
  for (std::size_t i : m.order) {
    if (i >= m.jobs.size()) throw std::runtime_error("manifest: bad order");
  }
  if (m.block == 0) throw std::runtime_error("manifest: block must be > 0");
  return m;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::string();
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::uint64_t minor_faults_self() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

std::uint64_t peak_rss_kb_self() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

void Failures::add(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  n_ += n;
  if (reasons_.size() < 16) reasons_.push_back(why);
}

std::uint64_t Failures::count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return n_;
}

std::vector<std::string> Failures::reasons() const {
  std::lock_guard<std::mutex> lk(mu_);
  return reasons_;
}

Reference make_reference(const sc::ScenarioSpec& spec, Failures& fail) {
  sc::RunOptions opt;
  opt.shards = 1;
  const sc::ScenarioOutcome out = sc::run_scenario(spec, opt);
  check_result(spec, out.result, fail);
  Reference r;
  r.report = out.report_text;
  r.metrics = out.metrics_json;
  r.yield = out.yield_json;
  r.events = out.events_jsonl;
  r.units = out.result.units_run;
  return r;
}

namespace {

bool session_cost(const sc::ScenarioSpec& spec, const sc::SessionSpec& s,
                  std::uint64_t& tcks) {
  const std::size_t n = spec.topology.n_wires;
  const std::size_t m = spec.topology.m_extra_cells;
  const std::size_t ir = spec.topology.ir_width;
  const jsi::core::ObservationMethod method = sc::observation_method(s);
  switch (s.kind) {
    case sc::SessionKind::Enhanced:
      tcks = jsi::core::dry_run_cost(
                 jsi::core::plan_enhanced_session(n, m, ir, method))
                 .total_tcks;
      return true;
    case sc::SessionKind::Conventional:
      tcks = jsi::core::dry_run_cost(
                 jsi::core::plan_conventional_session(n, m, ir, method))
                 .total_tcks;
      return true;
    case sc::SessionKind::Parallel:
      tcks = jsi::core::dry_run_cost(jsi::core::plan_parallel_victims(
                                         n, m, ir, method, s.guard))
                 .total_tcks;
      return true;
    default:
      return false;
  }
}

/// TCKs the scenario's sessions must take, summed from the dry-run cost
/// of each unit's TestPlan. Returns false for session kinds without a
/// TestPlan (BIST, EXTEST, multi-bus).
bool expected_tcks(const sc::ScenarioSpec& spec, std::uint64_t& tcks) {
  if (spec.topology.kind != sc::TopologyKind::Soc) return false;
  if (spec.sweep) {
    std::uint64_t per_die = 0;
    if (!session_cost(spec, spec.sessions.front(), per_die)) return false;
    tcks = per_die * sc::SweepUnitSource(spec).count();
    return true;
  }
  tcks = 0;
  for (const sc::SessionSpec& s : spec.sessions) {
    std::uint64_t t = 0;
    if (!session_cost(spec, s, t)) return false;
    tcks += t;
  }
  return true;
}

}  // namespace

std::uint64_t check_artifacts(const std::string& label,
                              const std::string& report,
                              const std::string& metrics,
                              const std::string& yield, const Reference& ref,
                              Failures& fail) {
  std::uint64_t bad = 0;
  auto expect = [&](bool ok, const char* what) {
    if (ok) return;
    ++bad;
    fail.add(1, label + ": " + what + " differs from the 1-shard reference");
  };
  expect(report == ref.report, "report.txt");
  expect(metrics == ref.metrics, "metrics.json");
  expect(yield == ref.yield, "yield.json");
  return bad;
}

namespace {

/// Table 5/6 closed forms against each enhanced or conventional unit of
/// a one-unit-per-session SoC campaign; returns the mismatch count.
std::uint64_t check_closed_forms(const sc::ScenarioSpec& spec,
                                 const jsi::core::CampaignResult& result,
                                 Failures& fail) {
  jsi::analysis::TimeModel tm;
  tm.n = spec.topology.n_wires;
  tm.m = spec.topology.m_extra_cells;
  tm.ir_w = spec.topology.ir_width;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < spec.sessions.size(); ++i) {
    const sc::SessionSpec& s = spec.sessions[i];
    const jsi::core::ObservationMethod method = sc::observation_method(s);
    std::uint64_t gen = 0, obs = 0;
    if (s.kind == sc::SessionKind::Conventional) {
      gen = tm.conventional_generation();
      obs = tm.conventional_observation(method);
    } else if (s.kind == sc::SessionKind::Enhanced) {
      gen = tm.pgbsc_generation();
      obs = tm.enhanced_observation(method);
    } else {
      continue;
    }
    const jsi::core::UnitOutcome& u = result.units[i];
    if (u.generation_tcks != gen || u.observation_tcks != obs) {
      ++bad;
      fail.add(1, spec.name + ": " + u.name + " TCKs differ from TimeModel");
    }
  }
  return bad;
}

}  // namespace

std::uint64_t check_result(const sc::ScenarioSpec& spec,
                           const jsi::core::CampaignResult& result,
                           Failures& fail) {
  std::uint64_t bad = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (ok) return;
    ++bad;
    fail.add(1, spec.name + ": " + what);
  };
  const std::uint64_t units = spec.sweep ? sc::SweepUnitSource(spec).count()
                                         : spec.sessions.size();
  expect(result.complete, "campaign incomplete");
  expect(result.units_run == units, "unit count differs from the spec");
  if (spec.sweep) {
    // Unit totals come from the merged registry, never from the profile.
    expect(result.metrics.counter_value("sweep.units") == units,
           "sweep.units counter != sweep size");
  }
  std::uint64_t tcks = 0;
  if (expected_tcks(spec, tcks)) {
    expect(result.total_tcks == tcks, "campaign TCKs != dry_run_cost");
    expect(result.metrics.counter_value("tck.total") == tcks,
           "registry tck.total != dry_run_cost");
  }
  if (!spec.sweep && spec.topology.kind == sc::TopologyKind::Soc &&
      result.units.size() == spec.sessions.size()) {
    bad += check_closed_forms(spec, result, fail);
  }
  return bad;
}

// ---- JsonOut ----------------------------------------------------------------

void JsonOut::sep() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.back()) os_ << ',';
  first_.back() = false;
}

JsonOut& JsonOut::begin_object() {
  sep();
  os_ << '{';
  first_.push_back(true);
  return *this;
}

JsonOut& JsonOut::end_object() {
  os_ << '}';
  first_.pop_back();
  return *this;
}

JsonOut& JsonOut::key(const std::string& k) {
  sep();
  write_string(k);
  os_ << ':';
  after_key_ = true;
  return *this;
}

JsonOut& JsonOut::num(double v) {
  sep();
  if (!std::isfinite(v)) {
    os_ << "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os_ << buf;
  return *this;
}

JsonOut& JsonOut::uint(std::uint64_t v) {
  sep();
  os_ << v;
  return *this;
}

JsonOut& JsonOut::str(const std::string& s) {
  sep();
  write_string(s);
  return *this;
}

void JsonOut::write_string(const std::string& s) {
  os_ << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os_ << "\\\""; break;
      case '\\': os_ << "\\\\"; break;
      case '\n': os_ << "\\n"; break;
      case '\t': os_ << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os_ << buf;
        } else {
          os_ << c;
        }
    }
  }
  os_ << '"';
}

JsonOut& JsonOut::boolean(bool b) {
  sep();
  os_ << (b ? "true" : "false");
  return *this;
}

JsonOut& JsonOut::nums(const std::vector<double>& v) {
  sep();
  os_ << '[';
  first_.push_back(true);
  for (double x : v) num(x);
  first_.pop_back();
  os_ << ']';
  return *this;
}

JsonOut& JsonOut::strs(const std::vector<std::string>& v) {
  sep();
  os_ << '[';
  first_.push_back(true);
  for (const std::string& s : v) str(s);
  first_.pop_back();
  os_ << ']';
  return *this;
}

}  // namespace jsib
