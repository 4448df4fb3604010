// Sweep campaigns end to end: parse diagnostics (pinned strings), the
// lazy SweepUnitSource's per-index derivation (grid mapping, process
// variation, per-die defects — all pure functions of the unit index),
// the runner's aggregate-transcript threshold as a sweep sees it (report
// and --profile agree on the folded totals), the population-scale
// determinism contract: report/metrics/yield byte-identical across
// shard counts and across checkpoint kill/resume boundaries, and the
// optional `sweep.truth` scoring (evaluate_truth on a die's own bus, the
// escape/overkill counters, and a scan that leaves no other trace).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/session.hpp"
#include "core/soc.hpp"
#include "scenario/build.hpp"
#include "scenario/parse.hpp"
#include "scenario/run.hpp"
#include "scenario/serialize.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "sim/time.hpp"
#include "si/bus.hpp"
#include "util/json.hpp"
#include "util/prng.hpp"

namespace jsi {
namespace {

using scenario::parse_scenario;
using scenario::ScenarioSpec;
using scenario::SpecError;
using scenario::SweepUnitSource;

std::string wrap(const std::string& body) {
  return R"({"name":"s","description":"d",)" + body + "}";
}

/// A small but real sweep: 2x2 detector grid, 5 sampled dies per point,
/// process variation and one per-die random defect — 20 units, cheap
/// enough to run repeatedly (4-wire bus), rich enough that any
/// scheduling or rounding leak shows up in the pinned artifacts.
std::string small_sweep_doc() {
  return wrap(
      R"("topology":{"kind":"soc","n_wires":4,"bus":{"samples":512}},)"
      R"("sessions":[{"kind":"enhanced","name":"die","method":1}],)"
      R"("sweep":{"samples":5,"nd_vhthr_frac":[0.3,0.55],)"
      R"("sd_budget_ps":[120,250],)"
      R"("variations":[{"param":"r_driver","sigma":0.1},)"
      R"({"param":"c_couple","sigma":0.05}],)"
      R"("defects":[{"kind":"random_crosstalk","count":1,"severity":1.4}]},)"
      R"("campaign":{"seed":77})");
}

void expect_spec_error(const std::string& doc, const std::string& what) {
  try {
    parse_scenario(doc);
    FAIL() << "expected SpecError \"" << what << "\"";
  } catch (const SpecError& e) {
    EXPECT_EQ(std::string(e.what()), what);
  }
}

std::string temp_file(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("jsi_sweep_test_" + tag + "_" +
           std::to_string(static_cast<unsigned>(::getpid()))))
      .string();
}

// ---- parse / serialize ------------------------------------------------------

TEST(SweepParse, RoundTripsThroughSerialize) {
  const ScenarioSpec a = parse_scenario(small_sweep_doc());
  ASSERT_TRUE(a.sweep.has_value());
  EXPECT_EQ(a.sweep->samples, 5u);
  EXPECT_EQ(a.sweep->nd_vhthr_frac.size(), 2u);
  EXPECT_EQ(a.sweep->sd_budget_ps.size(), 2u);
  EXPECT_EQ(a.sweep->variations.size(), 2u);
  EXPECT_EQ(a.sweep->defects.size(), 1u);
  const ScenarioSpec b = parse_scenario(scenario::serialize(a));
  EXPECT_EQ(scenario::serialize(a), scenario::serialize(b));
}

TEST(SweepParse, PinnedDiagnostics) {
  expect_spec_error(
      wrap(R"("topology":{"kind":"board","n_nets":4},)"
           R"("sessions":[{"kind":"extest"}],"sweep":{"samples":2})"),
      "sweep: requires topology kind \"soc\"");
  expect_spec_error(
      wrap(R"("topology":{"kind":"soc","n_wires":4},)"
           R"("sessions":[{"kind":"enhanced","method":1},)"
           R"({"kind":"bist"}],"sweep":{"samples":2})"),
      "sweep: requires exactly one session template");
  expect_spec_error(
      wrap(R"("topology":{"kind":"soc","n_wires":4},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"nd_vhthr_frac":[0.05]})"),
      "sweep.nd_vhthr_frac[0]: must be a number in (0.1, 1)");
  expect_spec_error(
      wrap(R"("topology":{"kind":"soc","n_wires":4},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"variations":[{"param":"wingspan","sigma":0.1}]})"),
      "sweep.variations[0].param: unknown bus parameter \"wingspan\"");
  expect_spec_error(
      wrap(R"("topology":{"kind":"soc","n_wires":4},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"variations":[{"param":"vdd","sigma":-0.1}]})"),
      "sweep.variations[0].sigma: must be >= 0");
  expect_spec_error(
      wrap(R"("topology":{"kind":"soc","n_wires":4},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"samples":0})"),
      "sweep.samples: must be an integer >= 1");
}

/// small_sweep_doc's topology and session with `sweep` as given.
std::string sweep_doc(const std::string& sweep) {
  return wrap(R"("topology":{"kind":"soc","n_wires":4},)"
              R"("sessions":[{"kind":"enhanced","method":1}],)"
              R"("sweep":)" + sweep);
}

TEST(SweepParse, TruthDiagnostics) {
  expect_spec_error(sweep_doc(R"({"truth":[]})"),
                    "sweep.truth: expected an object");
  expect_spec_error(sweep_doc(R"({"truth":{"max_settle_ps":200}})"),
                    "sweep.truth.max_glitch_frac: required");
  expect_spec_error(sweep_doc(R"({"truth":{"max_glitch_frac":0.45}})"),
                    "sweep.truth.max_settle_ps: required");
  expect_spec_error(
      sweep_doc(R"({"truth":{"max_glitch_frac":"0.45","max_settle_ps":200}})"),
      "sweep.truth.max_glitch_frac: expected a number");
  for (const char* frac : {"0", "-0.2", "1.5"}) {
    expect_spec_error(
        sweep_doc(std::string(R"({"truth":{"max_glitch_frac":)") + frac +
                  R"(,"max_settle_ps":200}})"),
        "sweep.truth.max_glitch_frac: must be a number in (0, 1]");
  }
  for (const char* ps : {"0", "12.5", "\"200\""}) {
    expect_spec_error(
        sweep_doc(std::string(R"({"truth":{"max_glitch_frac":0.45,)") +
                  R"("max_settle_ps":)" + ps + "}}"),
        "sweep.truth.max_settle_ps: must be an integer >= 1");
  }
  expect_spec_error(
      sweep_doc(R"({"truth":{"max_glitch_frac":0.45,"max_settle_ps":200,)"
                R"("max_skew_ps":10}})"),
      "sweep.truth.max_skew_ps: unknown key");
}

TEST(SweepParse, TruthReachesASerializeFixedPoint) {
  const ScenarioSpec a = parse_scenario(
      sweep_doc(R"({"truth":{"max_glitch_frac":1,"max_settle_ps":180}})"));
  ASSERT_TRUE(a.sweep->truth.has_value());
  EXPECT_DOUBLE_EQ(a.sweep->truth->max_glitch_frac, 1.0);
  EXPECT_EQ(a.sweep->truth->max_settle_ps, 180u);
  const std::string once = scenario::serialize(a);
  EXPECT_NE(once.find("\"truth\""), std::string::npos);
  const ScenarioSpec b = parse_scenario(once);
  EXPECT_EQ(scenario::serialize(b), once);
  // Absent stays absent: the serializer adds no empty truth object.
  EXPECT_EQ(scenario::serialize(parse_scenario(small_sweep_doc()))
                .find("truth"),
            std::string::npos);
}

// ---- the lazy unit source ---------------------------------------------------

TEST(SweepSource, GridIsRowMajorCrossProduct) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  const SweepUnitSource src(spec);
  EXPECT_EQ(src.grid_points(), 4u);
  EXPECT_EQ(src.samples(), 5u);
  EXPECT_EQ(src.count(), 20u);
  // Row-major, ND outer: (0.3,120) (0.3,250) (0.55,120) (0.55,250).
  EXPECT_DOUBLE_EQ(*src.grid_point(0).nd_vhthr_frac, 0.3);
  EXPECT_EQ(*src.grid_point(0).sd_budget_ps, 120u);
  EXPECT_DOUBLE_EQ(*src.grid_point(1).nd_vhthr_frac, 0.3);
  EXPECT_EQ(*src.grid_point(1).sd_budget_ps, 250u);
  EXPECT_DOUBLE_EQ(*src.grid_point(2).nd_vhthr_frac, 0.55);
  EXPECT_EQ(*src.grid_point(2).sd_budget_ps, 120u);
  EXPECT_DOUBLE_EQ(*src.grid_point(3).nd_vhthr_frac, 0.55);
  EXPECT_EQ(*src.grid_point(3).sd_budget_ps, 250u);
  EXPECT_EQ(SweepUnitSource::grid_prefix(3), "sweep.grid.g0003");
}

TEST(SweepSource, EmptyAxesGiveOneDefaultPoint) {
  const ScenarioSpec spec = parse_scenario(
      wrap(R"("topology":{"kind":"soc","n_wires":4},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"samples":7})"));
  const SweepUnitSource src(spec);
  EXPECT_EQ(src.grid_points(), 1u);
  EXPECT_EQ(src.count(), 7u);
  EXPECT_FALSE(src.grid_point(0).nd_vhthr_frac.has_value());
  EXPECT_FALSE(src.grid_point(0).sd_budget_ps.has_value());
  // The default point leaves the topology's detector config untouched.
  const core::SocConfig base = scenario::soc_config(spec);
  const core::SocConfig cfg = src.unit_config(0);
  EXPECT_DOUBLE_EQ(cfg.nd.v_hthr_frac, base.nd.v_hthr_frac);
  EXPECT_EQ(cfg.sd.skew_budget, base.sd.skew_budget);
}

TEST(SweepSource, UnitConfigAppliesGridAndVariation) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  const SweepUnitSource src(spec);
  // Unit 7 sits in grid point 1 (0.3, 250), sample 2.
  const core::SocConfig cfg = src.unit_config(7);
  EXPECT_DOUBLE_EQ(cfg.nd.v_hthr_frac, 0.3);
  EXPECT_DOUBLE_EQ(cfg.nd.v_hmin_frac, 0.3 - 0.10);
  EXPECT_EQ(cfg.sd.skew_budget, 250 * sim::kPs);
  // Variation draws come from Prng(seed).split(7): factors reproduce.
  util::Prng rng = util::Prng(77).split(7);
  const double r_factor = 1.0 + 0.1 * rng.next_normal();
  const double c_factor = 1.0 + 0.05 * rng.next_normal();
  EXPECT_DOUBLE_EQ(cfg.bus.r_driver, 250.0 * r_factor);
  EXPECT_DOUBLE_EQ(cfg.bus.c_couple, 50e-15 * c_factor);
  // Unvaried parameters stay put.
  EXPECT_DOUBLE_EQ(cfg.bus.r_wire, 100.0);
}

TEST(SweepSource, UnitDerivationIsPureAndPerDie) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  const SweepUnitSource src(spec);
  // Pure: deriving unit 13 twice gives identical config and defects.
  const core::SocConfig a = src.unit_config(13);
  const core::SocConfig b = src.unit_config(13);
  EXPECT_DOUBLE_EQ(a.bus.r_driver, b.bus.r_driver);
  const auto da = src.unit_defects(13);
  const auto db = src.unit_defects(13);
  ASSERT_EQ(da.size(), 1u);
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(da[0].wire, db[0].wire);
  EXPECT_EQ(da[0].kind, scenario::DefectKind::Crosstalk)
      << "random_crosstalk must resolve to a concrete placement";
  // Per-die: across the 20 dies the placements are not all identical.
  bool differs = false;
  for (std::size_t i = 1; i < src.count(); ++i) {
    if (src.unit_defects(i)[0].wire != da[0].wire) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(SweepSource, UnitNamesEncodeGridAndSample) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  const SweepUnitSource src(spec);
  EXPECT_EQ(src.unit(0).name, "die_g0_s0");
  EXPECT_EQ(src.unit(7).name, "die_g1_s2");
  EXPECT_EQ(src.unit(19).name, "die_g3_s4");
}

// ---- campaign lowering ------------------------------------------------------

TEST(SweepBuild, SmallSweepKeepsPerUnitTranscript) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  const scenario::ScenarioOutcome out = scenario::run_scenario(spec);
  EXPECT_FALSE(out.result.aggregated);
  ASSERT_EQ(out.result.units.size(), 20u);
  EXPECT_EQ(out.result.units[0].name, "die_g0_s0");
  EXPECT_EQ(out.result.units_run, 20u);
  // Population metrics booked by every unit.
  EXPECT_EQ(out.result.metrics.counter_value("sweep.units"), 20u);
  EXPECT_EQ(out.result.metrics.counter_value("sweep.grid.g0000.units"), 5u);
  EXPECT_FALSE(out.yield_json.empty());
}

TEST(SweepBuild, LargeSweepAggregates) {
  // 129 units crosses core::kTranscriptThreshold = 128.
  const ScenarioSpec spec = parse_scenario(
      wrap(R"("topology":{"kind":"soc","n_wires":4,"bus":{"samples":512}},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"samples":129},"campaign":{"seed":1})"));
  const scenario::ScenarioOutcome out = scenario::run_scenario(spec);
  EXPECT_TRUE(out.result.aggregated);
  EXPECT_TRUE(out.result.units.empty());
  EXPECT_EQ(out.result.units_run, 129u);
  EXPECT_NE(out.report_text.find("129 units (aggregated)"),
            std::string::npos);
}

/// The sweep of SweepBuild.LargeSweepAggregates: 129 units, aggregated.
std::string aggregated_sweep_doc() {
  return wrap(R"("topology":{"kind":"soc","n_wires":4,"bus":{"samples":512}},)"
              R"("sessions":[{"kind":"enhanced","method":1}],)"
              R"("sweep":{"samples":129},"campaign":{"seed":1})");
}

TEST(SweepProfile, AggregatedProfileTotalsMatchTheReport) {
  // An aggregated campaign retains no per-unit list, so --profile must
  // print the folded books report.txt prints — never "units: 0".
  scenario::RunOptions opt;
  opt.profile = true;
  const scenario::ScenarioOutcome out =
      scenario::run_scenario(parse_scenario(aggregated_sweep_doc()), opt);
  ASSERT_TRUE(out.result.aggregated);

  unsigned long long units = 0, violations = 0, failures = 0;
  unsigned long long total = 0, generation = 0, observation = 0;
  ASSERT_EQ(std::sscanf(out.report_text.c_str(),
                        "campaign: %llu units (aggregated), %llu violations, "
                        "%llu failures\ntcks: total=%llu generation=%llu "
                        "observation=%llu\n",
                        &units, &violations, &failures, &total, &generation,
                        &observation),
            6)
      << out.report_text;
  EXPECT_EQ(units, 129u);
  EXPECT_GT(total, 0u);

  const std::string units_line = "units: " + std::to_string(units) + " (" +
                                 std::to_string(violations) + " violations, " +
                                 std::to_string(failures) + " failures)\n";
  const std::string tcks_line = "tcks: total=" + std::to_string(total) +
                                " generation=" + std::to_string(generation) +
                                " (";
  const std::string obs_part =
      "observation=" + std::to_string(observation) + " (";
  EXPECT_NE(out.profile_text.find(units_line), std::string::npos)
      << out.profile_text;
  EXPECT_NE(out.profile_text.find(tcks_line), std::string::npos)
      << out.profile_text;
  EXPECT_NE(out.profile_text.find(obs_part), std::string::npos)
      << out.profile_text;
}

// ---- the determinism contract ----------------------------------------------

void expect_same_artifacts(const scenario::ScenarioOutcome& a,
                           const scenario::ScenarioOutcome& b,
                           const std::string& tag) {
  EXPECT_EQ(a.report_text, b.report_text) << tag;
  EXPECT_EQ(a.metrics_json, b.metrics_json) << tag;
  EXPECT_EQ(a.yield_json, b.yield_json) << tag;
}

TEST(SweepDeterminism, ShardCountInvariant) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  scenario::RunOptions one;
  one.shards = 1;
  const scenario::ScenarioOutcome base = scenario::run_scenario(spec, one);
  for (const std::size_t shards : {2u, 4u}) {
    scenario::RunOptions opt;
    opt.shards = shards;
    expect_same_artifacts(base, scenario::run_scenario(spec, opt),
                          "shards=" + std::to_string(shards));
  }
}

TEST(SweepDeterminism, ResumeByteIdenticalAtEveryBoundary) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  scenario::RunOptions whole;
  whole.shards = 1;
  const scenario::ScenarioOutcome base = scenario::run_scenario(spec, whole);

  // Per-unit mode => chunk_size 1 => 20 chunks; kill after 1, 7 and 19
  // fresh chunks, at 1 and 4 shards, and resume to completion.
  for (const std::size_t shards : {1u, 4u}) {
    for (const std::size_t kill_after : {1u, 7u, 19u}) {
      const std::string tag = "shards=" + std::to_string(shards) +
                              " kill=" + std::to_string(kill_after);
      const std::string ckpt = temp_file("resume");
      std::remove(ckpt.c_str());
      scenario::RunOptions step;
      step.shards = shards;
      step.checkpoint_path = ckpt;
      step.max_chunks = kill_after;
      const scenario::ScenarioOutcome partial =
          scenario::run_scenario(spec, step);
      EXPECT_FALSE(partial.result.complete) << tag;
      EXPECT_TRUE(partial.yield_json.empty())
          << "incomplete runs must not render a yield curve: " << tag;

      scenario::RunOptions rest;
      rest.shards = shards;
      rest.checkpoint_path = ckpt;
      rest.resume = true;
      const scenario::ScenarioOutcome resumed =
          scenario::run_scenario(spec, rest);
      EXPECT_TRUE(resumed.result.complete) << tag;
      expect_same_artifacts(base, resumed, tag);
      std::remove(ckpt.c_str());
    }
  }
}

TEST(SweepDeterminism, ResumeRejectsADifferentSpec) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  const std::string ckpt = temp_file("fingerprint");
  std::remove(ckpt.c_str());
  scenario::RunOptions step;
  step.checkpoint_path = ckpt;
  step.max_chunks = 2;
  (void)scenario::run_scenario(spec, step);

  // Same shape, different seed: a different campaign fingerprint.
  ScenarioSpec reseeded = spec;
  reseeded.campaign.seed = 78;
  scenario::RunOptions rest;
  rest.checkpoint_path = ckpt;
  rest.resume = true;
  EXPECT_THROW(scenario::run_scenario(reseeded, rest), std::runtime_error);
  std::remove(ckpt.c_str());
}

// ---- yield rendering --------------------------------------------------------

TEST(SweepYield, CurveCoversTheGrid) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  const scenario::ScenarioOutcome out = scenario::run_scenario(spec);
  const std::string& y = out.yield_json;
  EXPECT_NE(y.find("\"schema\": \"jsi.yield.v1\""), std::string::npos);
  EXPECT_NE(y.find("\"grid_points\": 4"), std::string::npos);
  EXPECT_NE(y.find("\"units\": 20"), std::string::npos);
  // One grid entry per point, population books present.
  EXPECT_NE(y.find("\"nd_vhthr_frac\": 0.55"), std::string::npos);
  EXPECT_NE(y.find("\"sd_budget_ps\": 250"), std::string::npos);
  EXPECT_NE(y.find("\"population\""), std::string::npos);
  EXPECT_NE(y.find("\"yield\""), std::string::npos);
}

// ---- ground truth -----------------------------------------------------------

using scenario::evaluate_truth;
using scenario::GroundTruth;
using scenario::TruthSpec;

/// A 6-wire die, 512 samples, run as `samples` dies of a `truth` sweep;
/// `extra` is spliced into the sweep object (variations, defects).
std::string truth_sweep_doc(std::size_t samples, const std::string& extra,
                            std::uint64_t seed = 3) {
  return wrap(
      R"("topology":{"kind":"soc","n_wires":6,"bus":{"samples":512}},)"
      R"("sessions":[{"kind":"enhanced","name":"die","method":1}],)"
      R"("sweep":{"samples":)" + std::to_string(samples) + extra +
      R"(,"truth":{"max_glitch_frac":0.45,"max_settle_ps":200}},)"
      R"("campaign":{"seed":)" + std::to_string(seed) + "}");
}

std::uint64_t books(const scenario::ScenarioOutcome& out,
                    const std::string& name) {
  return out.result.metrics.counter_value("sweep." + name);
}

/// The die `src` derives for `index`, built cold: its bus with its
/// defects applied and nothing run on it.
si::CoupledBus cold_die(const SweepUnitSource& src, std::size_t index) {
  si::CoupledBus bus(core::effective_bus_params(src.unit_config(index)));
  for (const scenario::DefectSpec& d : src.unit_defects(index)) {
    scenario::apply_defect(bus, d);
  }
  return bus;
}

TEST(SweepTruth, CleanDieTruthIsClean) {
  si::BusParams bp;
  bp.n_wires = 6;
  const si::CoupledBus bus(bp);
  const GroundTruth truth = evaluate_truth(bus, TruthSpec{});
  EXPECT_EQ(truth.noisy.popcount(), 0u);
  EXPECT_EQ(truth.skewed.popcount(), 0u);
  EXPECT_FALSE(truth.bad());
}

TEST(SweepTruth, SevereDefectsViolateTruth) {
  si::BusParams bp;
  bp.n_wires = 6;
  si::CoupledBus bus(bp);
  bus.inject_crosstalk_defect(2, 8.0);
  bus.add_series_resistance(4, 1000.0);
  const GroundTruth truth = evaluate_truth(bus, TruthSpec{});
  EXPECT_TRUE(truth.noisy[2]);
  EXPECT_TRUE(truth.skewed[4]);
  EXPECT_FALSE(truth.noisy[0]);
  EXPECT_TRUE(truth.bad());
  // With the store off every window is solved into scratch: same truth.
  si::CoupledBus unstored = bus.clone();
  unstored.set_cache_enabled(false);
  const GroundTruth solved = evaluate_truth(unstored, TruthSpec{});
  EXPECT_EQ(solved.noisy, truth.noisy);
  EXPECT_EQ(solved.skewed, truth.skewed);
}

TEST(SweepTruth, ScoreAfterTheSessionMatchesAColdBusAndMetersNothing) {
  core::SocConfig cfg;
  cfg.n_wires = 6;
  si::CoupledBus bus(core::effective_bus_params(cfg));
  bus.inject_crosstalk_defect(1, 6.0);
  bus.add_series_resistance(4, 700.0);
  si::CoupledBus cold = bus.clone();
  const GroundTruth expected = evaluate_truth(cold, TruthSpec{});

  core::SiSocDevice soc(cfg, bus);
  core::SiTestSession session(soc);
  (void)session.run(core::ObservationMethod::PerPattern);
  const std::uint64_t hits = bus.cache_hits();
  const std::uint64_t misses = bus.cache_misses();
  const GroundTruth after = evaluate_truth(bus, TruthSpec{});
  EXPECT_EQ(after.noisy, expected.noisy);
  EXPECT_EQ(after.skewed, expected.skewed);
  EXPECT_TRUE(after.bad());
  EXPECT_EQ(bus.cache_hits(), hits);
  EXPECT_EQ(bus.cache_misses(), misses);
}

TEST(SweepTruth, CountersAreDeterministicInSeed) {
  const std::string extra =
      R"(,"variations":[{"param":"r_driver","sigma":0.1}],)"
      R"("defects":[{"kind":"random_crosstalk","count":1,"severity":4}])";
  const ScenarioSpec spec = parse_scenario(truth_sweep_doc(10, extra, 42));
  const scenario::ScenarioOutcome a = scenario::run_scenario(spec);
  const scenario::ScenarioOutcome b = scenario::run_scenario(spec);
  for (const char* k : {"bad", "escapes", "overkill", "wire_tp", "wire_fp",
                        "wire_fn", "wire_tn"}) {
    EXPECT_EQ(books(a, k), books(b, k)) << k;
  }
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.yield_json, b.yield_json);
  // Every wire of every die lands in exactly one confusion cell.
  EXPECT_EQ(books(a, "wire_tp") + books(a, "wire_fp") + books(a, "wire_fn") +
                books(a, "wire_tn"),
            10u * 6u);
}

TEST(SweepTruth, NoDefectsNoFlags) {
  const scenario::ScenarioOutcome out =
      scenario::run_scenario(parse_scenario(truth_sweep_doc(8, "")));
  EXPECT_EQ(books(out, "units"), 8u);
  EXPECT_EQ(books(out, "violations"), 0u);
  EXPECT_EQ(books(out, "bad"), 0u);
  EXPECT_EQ(books(out, "escapes"), 0u);
  EXPECT_EQ(books(out, "overkill"), 0u);
  EXPECT_EQ(books(out, "wire_fp"), 0u);
  EXPECT_EQ(books(out, "wire_tn"), 8u * 6u);
  EXPECT_NE(out.yield_json.find("\"escapes\": 0"), std::string::npos);
}

TEST(SweepTruth, SevereDefectGetsCaught) {
  const ScenarioSpec spec = parse_scenario(truth_sweep_doc(
      12, R"(,"defects":[{"kind":"random_crosstalk","count":1,"severity":8}])"));
  const scenario::ScenarioOutcome out = scenario::run_scenario(spec);
  EXPECT_GT(books(out, "bad"), 0u);
  EXPECT_GT(books(out, "violations"), 0u);
  // Severe defects are far past both the spec and the detector
  // thresholds, so wire-level sensitivity is high.
  const double tp = static_cast<double>(books(out, "wire_tp"));
  const double fn = static_cast<double>(books(out, "wire_fn"));
  ASSERT_GT(tp + fn, 0.0);
  EXPECT_GT(tp / (tp + fn), 0.8);
  // At severity 8 the glitch half of the spec fires too.
  const SweepUnitSource src(spec);
  std::size_t noisy_dies = 0;
  for (std::size_t i = 0; i < src.count(); ++i) {
    noisy_dies += evaluate_truth(cold_die(src, i), *spec.sweep->truth)
                      .noisy.popcount() > 0;
  }
  EXPECT_GT(noisy_dies, 0u);
}

TEST(SweepTruth, ShippedStudyScreensAtTheTightBudget) {
  const ScenarioSpec spec = scenario::load_scenario(
      std::string(JSI_SCENARIO_DIR) + "/yield_truth_sweep.scenario.json");
  ASSERT_TRUE(spec.sweep && spec.sweep->truth);
  const scenario::ScenarioOutcome out = scenario::run_scenario(spec);
  const SweepUnitSource src(spec);
  std::uint64_t loose_escapes = 0;
  for (std::size_t g = 0; g < src.grid_points(); ++g) {
    const std::uint64_t escapes = out.result.metrics.counter_value(
        SweepUnitSource::grid_prefix(g) + ".escapes");
    if (*src.grid_point(g).sd_budget_ps == 150) {
      EXPECT_EQ(escapes, 0u) << "grid point " << g;
    } else {
      loose_escapes += escapes;
    }
  }
  EXPECT_GT(loose_escapes, 0u);
  // At the shipped severity of 1.5 every bad die breaks the settle
  // limit, never the glitch limit.
  std::size_t bad = 0;
  for (std::size_t i = 0; i < src.count(); ++i) {
    const GroundTruth t = evaluate_truth(cold_die(src, i), *spec.sweep->truth);
    if (!t.bad()) continue;
    ++bad;
    EXPECT_EQ(t.noisy.popcount(), 0u) << "die " << i;
  }
  EXPECT_EQ(bad, books(out, "bad"));
}

/// `metrics_json` with the truth counters dropped from its counters.
std::string without_truth_counters(const std::string& metrics_json) {
  namespace json = util::json;
  std::optional<json::Value> v = json::parse(metrics_json);
  EXPECT_TRUE(v.has_value());
  if (!v) return {};
  for (auto& [section, body] : v->object) {
    if (section != "counters") continue;
    std::erase_if(body.object, [](const auto& member) {
      for (const char* k : {".bad", ".escapes", ".overkill", ".wire_tp",
                            ".wire_fp", ".wire_fn", ".wire_tn"}) {
        if (member.first.ends_with(k)) return true;
      }
      return false;
    });
  }
  return json::to_text(*v);
}

TEST(SweepTruth, ScanLeavesNoTrace) {
  // Events kept and cache lookups traced, so a scan that looked anything
  // up through the metered path would show in events.jsonl.
  const std::string extra =
      R"(,"variations":[{"param":"c_couple","sigma":0.1}],)"
      R"("defects":[{"kind":"random_crosstalk","count":1,"severity":3}])";
  ScenarioSpec with = parse_scenario(truth_sweep_doc(6, extra));
  with.campaign.keep_events = true;
  with.obs.cache_lookups = true;
  ScenarioSpec without = with;
  without.sweep->truth.reset();

  const scenario::ScenarioOutcome a = scenario::run_scenario(with);
  const scenario::ScenarioOutcome b = scenario::run_scenario(without);
  ASSERT_FALSE(b.events_jsonl.empty());
  ASSERT_NE(b.events_jsonl.find("si.cache"), std::string::npos);
  EXPECT_EQ(a.report_text, b.report_text);
  EXPECT_EQ(a.events_jsonl, b.events_jsonl);
  EXPECT_NE(a.metrics_json, b.metrics_json);
  EXPECT_EQ(without_truth_counters(a.metrics_json),
            without_truth_counters(b.metrics_json));
  EXPECT_EQ(b.yield_json.find("escapes"), std::string::npos);
}

}  // namespace
}  // namespace jsi
