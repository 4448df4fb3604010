// Campaign sharding scaling guard.
//
// Runs two shipped scenario files, byte for byte as they ship, at
// 1/2/4/8 shards through scenario::run_scenario:
//
//  * scenarios/campaign_multibus — 12 multibus units, the per-unit
//    transcript path (one unit per chunk);
//  * scenarios/yield_mc_sweep — 150 sampled dies of the shipped 8-wire,
//    2048-sample bus, the aggregated path (8-unit chunks, yield curve).
//
// Two classes of check per file:
//
//  * Correctness (always enforced, exit 1): the rendered report, merged
//    metrics and yield curve of every N-shard run must be byte-identical
//    to the 1-shard run's — the campaign runner's core guarantee. The
//    sweep must aggregate and render a yield curve; the campaign must not.
//  * Performance (enforced only where it is physically possible): >= 2.5x
//    speedup at 4 shards, checked only when the box actually has >= 4
//    hardware threads, best of kAttempts attempts to ride out CI load
//    spikes. Within an attempt every shard count is timed as the best of
//    the leg's interleaved repetitions, so one load phase on a shared box
//    slows all shard counts alike rather than just the 1-shard run. The
//    measured speedups are always printed.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>

#include "scenario/parse.hpp"
#include "scenario/run.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

constexpr int kAttempts = 3;
constexpr double kMinSpeedup4 = 2.5;

constexpr std::size_t kShards[] = {1, 2, 4, 8};

struct Leg {
  const char* scenario;
  bool aggregated;  // the result shape the file must take
  // Rounds of every shard count per attempt, sized so an attempt spans
  // over a second: bare, the ~170 ms multibus leg fits all its attempts
  // into one load phase.
  int reps;
};

constexpr Leg kLegs[] = {{"campaign_multibus", false, 5},
                         {"yield_mc_sweep", true, 1}};

struct Timed {
  double ms = 0.0;
  std::string report;
  std::string metrics_json;
  std::string yield_json;
};

Timed run_once(const Leg& leg, const jsi::scenario::ScenarioSpec& spec,
               std::size_t shards) {
  jsi::scenario::RunOptions opt;
  opt.shards = shards;
  const auto t0 = clock_type::now();
  const jsi::scenario::ScenarioOutcome r =
      jsi::scenario::run_scenario(spec, opt);
  const auto t1 = clock_type::now();
  if (r.result.failures != 0) {
    std::cerr << "FAIL: " << leg.scenario << " units failed:\n"
              << r.report_text;
    std::exit(1);
  }
  if (r.result.aggregated != leg.aggregated ||
      r.yield_json.empty() == leg.aggregated) {
    std::cerr << "FAIL: " << leg.scenario << " must "
              << (leg.aggregated ? "" : "not ")
              << "aggregate and render a yield curve\n";
    std::exit(1);
  }
  Timed out;
  out.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.report = r.report_text;
  out.metrics_json = r.metrics_json;
  out.yield_json = r.yield_json;
  return out;
}

/// Best 4-shard speedup over the attempts, or a negative value when an
/// N-shard run differs from the 1-shard reference.
double scaling_leg(const Leg& leg, unsigned hw) {
  const jsi::scenario::ScenarioSpec spec = jsi::scenario::load_scenario(
      std::string(JSI_SCENARIO_DIR) + "/" + leg.scenario + ".scenario.json");
  double best_speedup4 = 0.0;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    double best_ms[std::size(kShards)];
    std::fill(std::begin(best_ms), std::end(best_ms),
              std::numeric_limits<double>::infinity());
    Timed base;  // the attempt's first 1-shard run
    for (int rep = 0; rep < leg.reps; ++rep) {
      for (std::size_t k = 0; k < std::size(kShards); ++k) {
        const Timed t = run_once(leg, spec, kShards[k]);
        if (rep == 0 && k == 0) {
          base = t;
        } else if (t.report != base.report ||
                   t.metrics_json != base.metrics_json ||
                   t.yield_json != base.yield_json) {
          std::cerr << "FAIL: " << leg.scenario << " " << kShards[k]
                    << "-shard result differs from 1-shard reference\n";
          return -1.0;
        }
        best_ms[k] = std::min(best_ms[k], t.ms);
      }
    }
    for (std::size_t k = 1; k < std::size(kShards); ++k) {
      const double speedup = best_ms[0] / best_ms[k];
      if (kShards[k] == 4) best_speedup4 = std::max(best_speedup4, speedup);
      std::cout << leg.scenario << " attempt " << attempt << ": shards "
                << kShards[k] << ": " << best_ms[k] << " ms (1-shard "
                << best_ms[0] << " ms, best of " << leg.reps
                << ", speedup " << speedup << "x)\n";
    }
    // A quiet machine clears the bar on attempt 1.
    if (hw < 4 || best_speedup4 >= kMinSpeedup4) break;
  }
  return best_speedup4;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "campaign scaling: hw=" << hw << " threads\n";

  bool ok = true;
  for (const Leg& leg : kLegs) {
    const double speedup4 = scaling_leg(leg, hw);
    if (speedup4 < 0.0) {
      ok = false;
      continue;
    }
    std::cout << leg.scenario << ": byte-identical at 2/4/8 shards, best "
              << "4-shard speedup " << speedup4 << "x\n";
    if (hw < 4) {
      std::cout << "OK: speedup bar skipped: only " << hw
                << " hardware thread(s)\n";
    } else if (speedup4 < kMinSpeedup4) {
      std::cerr << "FAIL: " << leg.scenario << " best 4-shard speedup "
                << speedup4 << "x < " << kMinSpeedup4 << "x on a " << hw
                << "-thread box\n";
      ok = false;
    } else {
      std::cout << "OK: " << speedup4 << "x >= " << kMinSpeedup4 << "x\n";
    }
  }
  return ok ? 0 : 1;
}
