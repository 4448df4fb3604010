// Population-scale sweep scaling bench + correctness guard.
//
// The workload is a programmatically built Monte-Carlo sweep: a 2x2
// detector-threshold grid with JSI_SWEEP_UNITS/4 sampled dies per point
// (default 10^4 units total), each die placing one seeded random
// crosstalk defect from Prng(seed).split(i). The population is far above
// core::kTranscriptThreshold, so this exercises the engine's perf-opt
// path end to end: lazy unit generation, chunked scheduling, warmed
// prototype clones, and streaming aggregation. Two classes of check:
//
//  * Correctness (always enforced, exit 1): report, merged metrics and
//    the rendered yield curve of every N-shard run must be
//    byte-identical to the 1-shard run's.
//  * Performance (enforced only where it is physically possible): >= 2.5x
//    speedup at 4 shards, checked only when the box actually has >= 4
//    hardware threads, with retries to ride out CI load spikes. The
//    measured speedups and units/s are always printed and dumped into
//    BENCH_sweep.json either way.
//
// Knobs: JSI_SWEEP_UNITS (default 10000), JSI_SWEEP_ATTEMPTS (default 3).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "obs/registry.hpp"
#include "scenario/parse.hpp"
#include "scenario/run.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

jsi::scenario::ScenarioSpec make_workload(std::size_t units) {
  // 2x2 grid => samples = units/4 dies per point. A 4-wire 512-sample
  // bus keeps one die under a millisecond, so the default population
  // finishes in seconds while still being 10^4 real sessions.
  const std::size_t samples = std::max<std::size_t>(1, units / 4);
  const std::string doc =
      R"({"name":"sweep_scaling",)"
      R"("description":"programmatic Monte-Carlo scaling workload",)"
      R"("topology":{"kind":"soc","n_wires":4,"bus":{"samples":512}},)"
      R"("sessions":[{"kind":"enhanced","name":"die","method":1}],)"
      R"("sweep":{"samples":)" +
      std::to_string(samples) +
      R"(,"nd_vhthr_frac":[0.3,0.6],"sd_budget_ps":[150,250],)"
      R"("defects":[{"kind":"random_crosstalk","count":1,"severity":1.5}]},)"
      R"("campaign":{"seed":2003}})";
  return jsi::scenario::parse_scenario(doc);
}

struct Timed {
  double ms = 0.0;
  std::string text;
  std::string metrics_json;
  std::string yield_json;
};

Timed run_once(const jsi::scenario::ScenarioSpec& spec, std::size_t shards) {
  jsi::scenario::RunOptions opt;
  opt.shards = shards;
  const auto t0 = clock_type::now();
  const jsi::scenario::ScenarioOutcome r =
      jsi::scenario::run_scenario(spec, opt);
  const auto t1 = clock_type::now();
  Timed out;
  out.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.text = r.report_text;
  out.metrics_json = r.metrics_json;
  out.yield_json = r.yield_json;
  if (r.result.failures != 0) {
    std::cerr << "FAIL: sweep units failed:\n" << out.text;
    std::exit(1);
  }
  if (!r.result.aggregated || r.yield_json.empty()) {
    std::cerr << "FAIL: population sweep must aggregate and render a "
                 "yield curve\n";
    std::exit(1);
  }
  return out;
}

}  // namespace

int main() {
  const std::size_t units = env_or("JSI_SWEEP_UNITS", 10000);
  const std::size_t attempts = env_or("JSI_SWEEP_ATTEMPTS", 3);
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t shard_counts[] = {1, 2, 4};

  const jsi::scenario::ScenarioSpec spec = make_workload(units);
  const std::size_t total = spec.sweep->samples * 4;

  std::cout << "sweep scaling: " << total << " sampled dies, hw=" << hw
            << " threads\n";

  jsi::obs::Registry& reg = jsi::obs::global_registry();
  double best_speedup4 = 0.0;
  double best_ms = 0.0;  // fastest run at any shard count
  bool identical = true;

  for (std::size_t attempt = 1; attempt <= attempts; ++attempt) {
    const Timed base = run_once(spec, 1);
    double t4 = base.ms;
    for (const std::size_t shards : shard_counts) {
      if (shards == 1) continue;
      const Timed t = run_once(spec, shards);
      // Correctness gate: byte-identical to the 1-shard reference.
      if (t.text != base.text || t.metrics_json != base.metrics_json ||
          t.yield_json != base.yield_json) {
        std::cerr << "FAIL: " << shards
                  << "-shard result differs from 1-shard reference\n";
        identical = false;
      }
      const double speedup = base.ms / t.ms;
      if (shards == 4) t4 = t.ms;
      if (best_ms == 0.0 || t.ms < best_ms) best_ms = t.ms;
      std::cout << "attempt " << attempt << ": shards " << shards << ": "
                << t.ms << " ms (1-shard " << base.ms << " ms, speedup "
                << speedup << "x)\n";
      const std::string tag = std::to_string(shards);
      reg.gauge("sweep.ms.shards_" + tag).set(t.ms);
      reg.gauge("sweep.speedup.shards_" + tag).set(speedup);
    }
    reg.gauge("sweep.ms.shards_1").set(base.ms);
    if (best_ms == 0.0 || base.ms < best_ms) best_ms = base.ms;
    best_speedup4 = std::max(best_speedup4, base.ms / t4);
    if (!identical) break;
    // Performance is satisfied as soon as one attempt clears the bar.
    if (hw < 4 || best_speedup4 >= 2.5) break;
  }

  reg.gauge("sweep.speedup.best_4shard").set(best_speedup4);
  reg.gauge("sweep.hw_threads").set(static_cast<double>(hw));
  reg.counter("sweep.population").inc(total);
  if (best_ms > 0.0) {
    const double ups = static_cast<double>(total) * 1000.0 / best_ms;
    reg.gauge("sweep.units_per_sec").set(ups);
    std::cout << "throughput: " << ups << " units/s (best run " << best_ms
              << " ms)\n";
  }
  const std::string path = jsi::obs::jsi_metrics_dump("sweep");
  if (!path.empty()) std::cout << "metrics: " << path << "\n";

  if (!identical) return 1;
  if (hw >= 4) {
    if (best_speedup4 < 2.5) {
      std::cerr << "FAIL: best 4-shard speedup " << best_speedup4
                << "x < 2.5x on a " << hw << "-thread box\n";
      return 1;
    }
    std::cout << "OK: 4-shard speedup " << best_speedup4 << "x >= 2.5x\n";
  } else {
    std::cout << "OK: byte-identical across shard counts (speedup bar "
                 "skipped: only "
              << hw << " hardware thread(s))\n";
  }
  return 0;
}
