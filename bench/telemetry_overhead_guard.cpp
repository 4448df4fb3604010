// Telemetry overhead guard.
//
// Live telemetry's contract is "cheap enough to leave on": workers only
// bump relaxed atomics in per-worker cache-line-aligned slots and the
// sampler wakes every interval_ms. This guard runs the multibus campaign
// scenario with telemetry off and with telemetry on at the default 250 ms
// interval (heartbeats to a throwaway file) and fails (exit 1) if the
// telemetry run is more than 2% slower. It also re-checks the byte-identity
// contract on the way: the report and merged metrics with telemetry on
// must equal the telemetry-off reference exactly.
//
// Methodology: min-of-K, interleaved, doubling repetitions per retry —
// the same one-sided-noise argument as obs_overhead_guard.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "scenario/parse.hpp"
#include "scenario/run.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

constexpr double kMaxOverhead = 0.02;  // 2% budget
constexpr int kAttempts = 5;
constexpr int kBaseReps = 5;

struct Timed {
  std::uint64_t ns = 0;
  std::string text;
  std::string metrics_json;
};

Timed run_once(const jsi::scenario::ScenarioSpec& spec,
               const jsi::scenario::RunOptions& opt) {
  const auto t0 = clock_type::now();
  const jsi::scenario::ScenarioOutcome r =
      jsi::scenario::run_scenario(spec, opt);
  const auto t1 = clock_type::now();
  if (r.result.failures != 0) {
    std::cerr << "FAIL: campaign units failed:\n" << r.report_text;
    std::exit(1);
  }
  Timed out;
  out.ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  out.text = r.report_text;
  out.metrics_json = r.metrics_json;
  return out;
}

}  // namespace

int main() {
  const jsi::scenario::ScenarioSpec spec = jsi::scenario::load_scenario(
      std::string(JSI_SCENARIO_DIR) + "/campaign_multibus.scenario.json");
  const std::string hb_path =
      (std::filesystem::temp_directory_path() / "jsi_telemetry_guard.jsonl")
          .string();

  jsi::scenario::RunOptions off;
  off.shards = 4;
  jsi::scenario::RunOptions on = off;
  {
    jsi::scenario::TelemetrySpec t;
    t.enabled = true;
    t.interval_ms = 250;  // the shipped default cadence
    t.path = hb_path;
    on.telemetry = t;
  }

  // Warm-up both paths, and pin byte-identity while we are at it: the
  // overhead number is only meaningful if telemetry really is a pure
  // side channel.
  const Timed ref = run_once(spec, off);
  const Timed live = run_once(spec, on);
  if (live.text != ref.text || live.metrics_json != ref.metrics_json) {
    std::cerr << "FAIL: telemetry-on artifacts differ from telemetry-off\n";
    return 1;
  }

  double best_ratio = 1e9;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    const int reps = kBaseReps << std::min(attempt - 1, 4);
    std::uint64_t base_ns = UINT64_MAX;
    std::uint64_t tele_ns = UINT64_MAX;
    for (int i = 0; i < reps; ++i) {
      base_ns = std::min(base_ns, run_once(spec, off).ns);
      tele_ns = std::min(tele_ns, run_once(spec, on).ns);
    }
    const double ratio =
        static_cast<double>(tele_ns) / static_cast<double>(base_ns);
    best_ratio = std::min(best_ratio, ratio);
    std::cout << "attempt " << attempt << " (" << reps << " reps): off "
              << base_ns << " ns, on " << tele_ns << " ns, ratio " << ratio
              << "\n";
    if (best_ratio <= 1.0 + kMaxOverhead) {
      std::cout << "OK: telemetry overhead " << (best_ratio - 1.0) * 100.0
                << "% <= " << kMaxOverhead * 100.0 << "% budget\n";
      std::remove(hb_path.c_str());
      return 0;
    }
  }
  std::cout << "FAIL: best ratio " << best_ratio << " exceeds "
            << 1.0 + kMaxOverhead << "\n";
  std::remove(hb_path.c_str());
  return 1;
}
