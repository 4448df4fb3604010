// In-process workloads (sweep_rc, sweep_low_swing, table5_n64): each
// timed repetition is exactly what `jsi run --out` does — load_scenario,
// run_scenario, write_artifacts — preceded by a timed load_scenario +
// build_campaign (the set-up a caller pays before the first unit runs).
// Every repetition's written artifacts are checked byte for byte against
// a 1-shard reference of the same generated input.
#include <cstdio>
#include <filesystem>

#include "common.hpp"
#include "scenario/build.hpp"
#include "scenario/parse.hpp"
#include "scenario/run.hpp"

namespace jsib {

namespace sc = jsi::scenario;

namespace {

// A run keeps repeating until --seconds have passed, but never reports a
// median of fewer than this many repetitions.
constexpr std::size_t kMinReps = 2;
// Set-up is timed several times per repetition while it is cheap (the
// sweeps' ~10 ms), once when it is not (table5_n64's table precompile).
constexpr std::size_t kMaxSetups = 5;
constexpr double kSetupBudgetS = 0.2;

}  // namespace

void run_inproc(const Args& a, const Manifest& m, RunRecord& rec) {
  std::vector<Reference> refs;
  for (const std::string& path : m.inputs) {
    refs.push_back(make_reference(sc::load_scenario(path), rec.fail));
  }

  const std::string ck = a.work_dir + "/checkpoint.jsonl";
  const std::string art = a.work_dir + "/artifacts";
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0;
       rep < kMinReps || seconds_since(start) < a.seconds; ++rep) {
    const std::size_t k = rep % refs.size();

    sc::BuildOptions bo;
    bo.shards = m.shards;
    double setup_total = 0;
    for (std::size_t i = 0; i < kMaxSetups && setup_total < kSetupBudgetS;
         ++i) {
      const Clock::time_point t0 = Clock::now();
      const sc::ScenarioSpec s = sc::load_scenario(m.inputs[k]);
      const sc::ScenarioCampaign campaign = sc::build_campaign(s, bo);
      const double secs = seconds_since(t0);
      rec.samples["setup_s"].push_back(secs);
      setup_total += secs;
    }
    const sc::ScenarioSpec spec = sc::load_scenario(m.inputs[k]);

    sc::RunOptions ro;
    ro.shards = m.shards;
    if (m.checkpoint) {
      std::filesystem::remove(ck);
      ro.checkpoint_path = ck;
    }
    const Clock::time_point t1 = Clock::now();
    const sc::ScenarioOutcome out = sc::run_scenario(spec, ro);
    sc::write_artifacts(art, out);
    const Clock::time_point t2 = Clock::now();

    const double wall_s = ms_between(t1, t2) / 1e3;
    rec.samples["campaign_ms"].push_back(wall_s * 1e3);
    rec.samples["units_per_s"].push_back(
        static_cast<double>(out.result.units_run) / wall_s);
    rec.attempted += out.result.units_run;
    rec.fail.add(out.result.failures, spec.name + ": units threw");

    check_artifacts(spec.name, read_file(art + "/report.txt"),
                    read_file(art + "/metrics.json"),
                    read_file(art + "/yield.json"), refs[k], rec.fail);
    check_result(spec, out.result, rec.fail);
  }
  rec.values["peak_rss_kb"] = static_cast<double>(peak_rss_kb_self());
}

}  // namespace jsib
