#include "scenario/run.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/profile.hpp"
#include "obs/tracer.hpp"
#include "scenario/sweep.hpp"
#include "util/json.hpp"

namespace jsi::scenario {

namespace {

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw std::runtime_error("cannot open " + path.string() + " for writing");
  }
  os << text;
  if (!os) throw std::runtime_error("failed writing " + path.string());
}

ScenarioOutcome render_outcome(const ScenarioSpec& spec,
                               core::CampaignResult result,
                               const RunOptions& opt) {
  ScenarioOutcome out;
  out.result = std::move(result);
  out.report_text = out.result.to_text();
  out.metrics_json = out.result.metrics.to_json() + "\n";
  out.events_jsonl = render_events_jsonl(out.result);
  if (opt.profile) out.profile_text = render_profile(spec, out.result);
  if (spec.sweep && out.result.complete) {
    out.yield_json = render_yield_json(spec, out.result);
  }
  return out;
}

}  // namespace

ScenarioOutcome run_scenario(const ScenarioSpec& spec, const RunOptions& opt) {
  ScenarioCampaign campaign = build_campaign(spec, opt);
  return render_outcome(spec, campaign.run(), opt);
}

std::string render_events_jsonl(const core::CampaignResult& result) {
  if (result.events.empty()) return {};
  std::ostringstream os;
  for (std::size_t u = 0; u < result.events.size(); ++u) {
    os << "{\"kind\":\"UnitBegin\",\"unit\":" << u << ",\"name\":";
    util::json::write_escaped_string(
        os, u < result.units.size() ? result.units[u].name : std::string());
    os << "}\n";
    for (const obs::Event& e : result.events[u]) {
      obs::write_event_jsonl(os, e);
    }
  }
  return os.str();
}

std::string render_profile(const ScenarioSpec& spec,
                           const core::CampaignResult& result) {
  // obs knows nothing about core, so bridge the result into the neutral
  // shapes profile_report consumes. The totals are the folded books, the
  // same numbers report.txt prints; the outcome list only ranks the
  // slowest units, so an aggregated campaign (which retains just its
  // failures) passes none.
  obs::ProfileTotals totals;
  totals.units = result.units_run;
  totals.violations = result.violations;
  totals.failures = result.failures;
  totals.total_tcks = result.total_tcks;
  totals.generation_tcks = result.generation_tcks;
  totals.observation_tcks = result.observation_tcks;
  std::vector<obs::ProfileUnit> units;
  if (!result.aggregated) {
    units.reserve(result.units.size());
    for (const core::UnitOutcome& u : result.units) {
      units.push_back({u.name, u.total_tcks, u.generation_tcks,
                       u.observation_tcks, u.failed});
    }
  }
  obs::ProfileOptions po;
  po.tck_period_ps = spec.obs.tck_period_ps;
  return obs::profile_report(
      totals, units, result.metrics,
      result.telemetry ? &*result.telemetry : nullptr, po);
}

std::string render_yield_json(const ScenarioSpec& spec,
                              const core::CampaignResult& result) {
  if (!spec.sweep) return {};
  namespace json = jsi::util::json;
  // Re-derive the grid from the spec (cheap: no units materialize) and
  // read the merged sweep.* counters — no per-unit state involved.
  const SweepUnitSource source(spec);
  const obs::Registry& m = result.metrics;

  const auto count_json = [](std::uint64_t v) {
    return json::Value::make_number(static_cast<double>(v));
  };
  const auto point_books = [&](const std::string& prefix, json::Value& v) {
    const std::uint64_t units = m.counter_value(prefix + ".units");
    const std::uint64_t violations = m.counter_value(prefix + ".violations");
    const std::uint64_t failures = m.counter_value(prefix + ".failures");
    v.add("units", count_json(units));
    v.add("violations", count_json(violations));
    v.add("failures", count_json(failures));
    const double yield =
        units == 0 ? 0.0
                   : static_cast<double>(units - violations - failures) /
                         static_cast<double>(units);
    v.add("yield", json::Value::make_number(yield));
    if (!spec.sweep->truth) return;
    for (const char* k : {"bad", "escapes", "overkill", "wire_tp", "wire_fp",
                          "wire_fn", "wire_tn"}) {
      v.add(k, count_json(m.counter_value(prefix + "." + k)));
    }
  };

  json::Value v = json::Value::make_object();
  v.add("schema", json::Value::make_string("jsi.yield.v1"));
  v.add("scenario", json::Value::make_string(spec.name));
  v.add("samples", count_json(source.samples()));
  v.add("grid_points", count_json(source.grid_points()));
  v.add("units", count_json(source.count()));

  json::Value population = json::Value::make_object();
  point_books("sweep", population);
  v.add("population", std::move(population));

  json::Value grid = json::Value::make_array();
  for (std::size_t g = 0; g < source.grid_points(); ++g) {
    const SweepUnitSource::GridPoint& p = source.grid_point(g);
    json::Value e = json::Value::make_object();
    e.add("id", count_json(p.id));
    if (p.nd_vhthr_frac) {
      e.add("nd_vhthr_frac", json::Value::make_number(*p.nd_vhthr_frac));
    }
    if (p.sd_budget_ps) e.add("sd_budget_ps", count_json(*p.sd_budget_ps));
    point_books(SweepUnitSource::grid_prefix(g), e);
    grid.push(std::move(e));
  }
  v.add("grid", std::move(grid));

  return json::to_text(v, 2) + "\n";
}

void write_artifacts(const std::string& dir, const ScenarioOutcome& outcome) {
  const std::filesystem::path root(dir);
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (ec) {
    throw std::runtime_error("cannot create " + root.string() + ": " +
                             ec.message());
  }
  write_file(root / "report.txt", outcome.report_text);
  write_file(root / "metrics.json", outcome.metrics_json);
  if (!outcome.events_jsonl.empty()) {
    write_file(root / "events.jsonl", outcome.events_jsonl);
  }
  if (!outcome.profile_text.empty()) {
    write_file(root / "profile.txt", outcome.profile_text);
  }
  if (!outcome.yield_json.empty()) {
    write_file(root / "yield.json", outcome.yield_json);
  }
}

}  // namespace jsi::scenario
