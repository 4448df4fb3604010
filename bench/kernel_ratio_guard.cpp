// Waveform-kernel throughput guard.
//
// The waveform store's contract is "MA transitions are (nearly) free":
// the 6*n G-SITEST vector pairs are prefilled into the bus's waveform
// store once per generation, so the steady-state hot path is n slot
// lookups instead of n per-wire analytic solves. This guard
// measures transitions/sec of the batched path against the raw scalar
// solver (bench/kernel_throughput.hpp) and fails (exit 1) when the
// speedup ratio drops below the floor — or, unconditionally, when the
// two paths disagree on a single output bit.
//
// The guard runs once per registered interconnect model: the store is
// model-agnostic, so every model behind the seam must hold
// the same floor.
//
// A second, session-level ratio covers the whole die: full sessions
// of the shipped scenarios/yield_mc_sweep die (its topology, its
// session's observation method, one crosstalk defect placed from its
// sweep's defect list) on a fresh bus each, store on against store off
// (`set_cache_enabled(false)`: every wire solved into scratch and
// scanned). With the store on, each stored waveform is solved once and
// scanned once per detector params, so a die must run at least
// kMinSessionRatio times the store-off rate; both sides must report
// byte-identical sessions.
//
// Methodology mirrors obs_overhead_guard: best-of-K attempts so a CI
// load spike has to persist to fail us; the parity checks are
// deterministic and never retried.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "kernel_throughput.hpp"
#include "scenario/build.hpp"
#include "scenario/parse.hpp"
#include "util/prng.hpp"

namespace {

/// Per-model floor: store-backed MA transitions/s over raw scalar solves
/// on an 8-wire bus. Ten runs measured 1294-1366x (rc_full_swing) and
/// 978-1510x (low_swing) on their first attempt (4-thread box,
/// RelWithDebInfo; see CHANGES.md), so a store that loses three quarters
/// of its speed fails.
constexpr double kMinRatio = 250.0;
constexpr std::size_t kWires = 8;
constexpr std::size_t kSweepsPerAttempt = 6;  // scalar MA sweeps
constexpr int kAttempts = 5;                  // best-of, for both ratios

/// Session-level floor: store-on dies/s over store-off dies/s. A store
/// that re-scans its waveforms on every transition and solves whole
/// pairs in its prefill measured 1.24-1.49x best-of-5; one that
/// solves and scans each stored waveform once measured 2.12-2.67x
/// (4-thread box, RelWithDebInfo; see CHANGES.md).
constexpr double kMinSessionRatio = 1.7;

/// The shipped sweep die, as one sampled unit of it would run.
struct ShippedDie {
  jsi::core::SocConfig cfg;
  jsi::core::ObservationMethod method{};
  std::vector<jsi::scenario::DefectSpec> defects;
};

ShippedDie shipped_die() {
  namespace sc = jsi::scenario;
  const sc::ScenarioSpec spec = sc::load_scenario(
      std::string(JSI_SCENARIO_DIR) + "/yield_mc_sweep.scenario.json");
  ShippedDie die;
  die.cfg = sc::soc_config(spec);
  die.method = sc::observation_method(spec.sessions.at(0));
  jsi::util::Prng rng(spec.campaign.seed);
  die.defects = sc::resolve_defects(spec.sweep.value().defects,
                                    spec.topology, rng);
  return die;
}

/// One full session of `die` on a fresh bus; the report text.
std::string run_die(const ShippedDie& die, bool store) {
  jsi::si::CoupledBus bus(jsi::core::effective_bus_params(die.cfg));
  bus.set_cache_enabled(store);
  for (const auto& d : die.defects) jsi::scenario::apply_defect(bus, d);
  jsi::core::SiSocDevice soc(die.cfg, bus);
  jsi::core::SiTestSession session(soc);
  return jsi::core::format_report(session.run(die.method));
}

/// Dies per second over `reps` sessions.
double dies_per_s(const ShippedDie& die, bool store, int reps) {
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t bytes = 0;
  for (int r = 0; r < reps; ++r) bytes += run_die(die, store).size();
  const double sec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return sec > 0.0 && bytes > 0 ? reps / sec : 0.0;
}

/// The session-level check; returns the process exit code.
int session_guard() {
  const ShippedDie die = shipped_die();
  if (run_die(die, true) != run_die(die, false)) {
    std::cerr << "FAIL: shipped die's session differs between store on "
                 "and store off\n";
    return 1;
  }
  constexpr int kReps = 20;
  double best = 0.0;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    const double off = dies_per_s(die, false, kReps);
    const double on = dies_per_s(die, true, kReps);
    const double ratio = off > 0.0 ? on / off : 0.0;
    best = std::max(best, ratio);
    std::cout << "session attempt " << attempt << ": store on " << on
              << " dies/s, store off " << off << " dies/s, ratio " << ratio
              << "x\n";
    if (best >= kMinSessionRatio) {
      std::cout << "OK: session store-on/store-off ratio " << best
                << "x >= " << kMinSessionRatio << "x floor\n";
      return 0;
    }
  }
  std::cerr << "FAIL: best session store-on/store-off ratio " << best
            << "x < " << kMinSessionRatio << "x floor\n";
  return 1;
}

}  // namespace

int main() {
  for (const jsi::si::ModelKind model : jsi::si::kAllModelKinds) {
    const char* name = jsi::si::model_kind_name(model);

    // Warm-up: fault in code, allocator pools and branch predictors.
    jsi::bench::measure_kernel_throughput(kWires, 1, model);

    double best_ratio = 0.0;
    bool ok = false;
    for (int attempt = 1; attempt <= kAttempts; ++attempt) {
      const jsi::bench::KernelThroughput kt =
          jsi::bench::measure_kernel_throughput(kWires, kSweepsPerAttempt,
                                                model);
      if (!kt.parity_ok) {
        std::cerr << "FAIL: " << name
                  << " batched kernel output differs from the scalar "
                     "reference (bit-for-bit parity broken)\n";
        return 1;
      }
      best_ratio = std::max(best_ratio, kt.ratio);
      std::cout << name << " attempt " << attempt << ": batched "
                << kt.batched_tps << " trans/s, scalar " << kt.scalar_tps
                << " trans/s, ratio " << kt.ratio << "x (store "
                << kt.cache_entries << " entries, " << kt.cache_hits
                << " hits / " << kt.cache_misses << " misses)\n";
      if (best_ratio >= kMinRatio) {
        std::cout << "OK: " << name << " batched/scalar ratio " << best_ratio
                  << "x >= " << kMinRatio << "x floor\n";
        ok = true;
        break;
      }
    }
    if (!ok) {
      std::cerr << "FAIL: " << name << " best batched/scalar ratio "
                << best_ratio << "x < " << kMinRatio << "x floor\n";
      return 1;
    }
  }
  return session_guard();
}
