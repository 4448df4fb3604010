#ifndef JSI_SCENARIO_RUN_HPP
#define JSI_SCENARIO_RUN_HPP

#include <string>

#include "core/campaign.hpp"
#include "scenario/build.hpp"
#include "scenario/spec.hpp"

namespace jsi::scenario {

/// The build controls (shards, telemetry, checkpoint/resume, cancel)
/// plus what run_scenario renders beyond the canonical artifacts.
struct RunOptions : BuildOptions {
  /// Render the post-run profile report into ScenarioOutcome::profile_text.
  bool profile = false;
};

/// Everything one scenario execution produces, already rendered into the
/// canonical artifact texts. The texts are pure functions of the spec —
/// byte-identical for any shard count and for the CLI vs the programmatic
/// path (the CLI is nothing but load_scenario + run_scenario +
/// write_artifacts).
struct ScenarioOutcome {
  core::CampaignResult result;
  std::string report_text;   ///< CampaignResult::to_text()
  std::string metrics_json;  ///< merged Registry as one JSON object + '\n'
  /// Per-unit event streams as JSONL: a {"kind":"UnitBegin",...} header
  /// per unit followed by its stamped events. Empty unless the spec sets
  /// campaign.keep_events.
  std::string events_jsonl;
  /// Post-run profile report (obs::profile_report). Empty unless
  /// RunOptions::profile is set. Informational — unlike the three
  /// artifacts above it may fold in measured telemetry (worker
  /// utilization), so it is not part of the determinism contract.
  std::string profile_text;
  /// Sweep campaigns only: the yield curve — per grid point, units run /
  /// violations / failures / yield fraction, plus the truth counts (bad
  /// dies, escapes, overkill, wire confusion) when the sweep sets
  /// `truth` — folded from the merged metrics. Part of the determinism
  /// contract (a pure function of the merged registry). Empty for
  /// non-sweep scenarios and for incomplete (max_chunks-limited or
  /// cancelled) runs.
  std::string yield_json;
};

/// Lower the spec (build_campaign), run it, and render the artifacts.
ScenarioOutcome run_scenario(const ScenarioSpec& spec,
                             const RunOptions& opt = {});

/// The events.jsonl text for a result captured with keep_events.
std::string render_events_jsonl(const core::CampaignResult& result);

/// The post-run profile report for a finished campaign: phase breakdown,
/// session-kind mix, top-k slowest units, and — when the result carries a
/// telemetry snapshot — measured per-worker utilization.
std::string render_profile(const ScenarioSpec& spec,
                           const core::CampaignResult& result);

/// The yield.json text for a sweep result: re-derives the grid from the
/// spec and reads the sweep.* counters out of the merged registry, so it
/// needs no per-unit state — O(1) in population size, byte-identical for
/// any shard count. Returns "" when the spec has no sweep.
std::string render_yield_json(const ScenarioSpec& spec,
                              const core::CampaignResult& result);

/// Write report.txt, metrics.json and (when non-empty) events.jsonl,
/// profile.txt and yield.json into `dir`, creating it if needed. Throws
/// std::runtime_error on I/O errors.
void write_artifacts(const std::string& dir, const ScenarioOutcome& outcome);

}  // namespace jsi::scenario

#endif  // JSI_SCENARIO_RUN_HPP
