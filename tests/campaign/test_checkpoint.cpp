// Chunked scheduling + checkpoint/resume mechanics at the core layer:
// the lazy UnitSource path, the runner's unit-count rule for the result
// shape (per-unit up to kTranscriptThreshold units, aggregated past it),
// the checkpoint file round-trip (bit-exact doubles included), torn-tail
// tolerance, and kill-at-a-boundary resume equivalence at 1 and 4
// shards. The scenario-level sweep suite rides on these guarantees in
// tests/scenario/test_sweep.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "obs/registry.hpp"

namespace jsi {
namespace {

using core::CampaignConfig;
using core::CampaignContext;
using core::CampaignResult;
using core::CampaignRunner;
using core::CampaignUnit;
using core::UnitOutcome;
using core::UnitSource;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "jsi_checkpoint_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Deterministic synthetic population: unit i books counters and a
/// histogram observation derived from i alone, flags a violation every
/// 7th unit and throws on unit 23 — enough structure to make any
/// merge-order or double-rounding bug visible in the pinned artifacts.
class FakeSource : public UnitSource {
 public:
  explicit FakeSource(std::size_t n) : n_(n) {}

  std::size_t count() const override { return n_; }

  CampaignUnit unit(std::size_t index) const override {
    CampaignUnit u;
    u.name = "fake_" + std::to_string(index);
    u.run = [index, this](CampaignContext& ctx) {
      materialized_.fetch_add(1, std::memory_order_relaxed);
      obs::Registry& reg = ctx.hub().registry();
      reg.counter("fake.units").inc();
      reg.counter("fake.work").inc(index + 1);
      // A sum of irrational-ish doubles: bit-exact only if the
      // checkpoint round-trip and merge order are bit-exact.
      reg.histogram("fake.cost").observe(0.1 * static_cast<double>(index) +
                                         0.7);
      if (index == 23) throw std::runtime_error("die 23 is cursed");
      UnitOutcome o;
      o.total_tcks = 100 + index;
      o.generation_tcks = 90 + index;
      o.observation_tcks = 10;
      o.violation = index % 7 == 0;
      o.summary = "synth";
      return o;
    };
    return u;
  }

  std::size_t materialized() const { return materialized_.load(); }
  void reset_materialized() { materialized_.store(0); }

 private:
  std::size_t n_;
  mutable std::atomic<std::size_t> materialized_{0};
};

CampaignResult run_once(const FakeSource& src, CampaignConfig cfg) {
  CampaignRunner runner(cfg);
  runner.set_source(&src);
  return runner.run();
}

// ---- checkpoint file round-trip --------------------------------------------

TEST(Checkpoint, FingerprintIsStable) {
  // FNV-1a 64 over the text; pinned so a checkpoint written today stays
  // resumable by tomorrow's binary.
  EXPECT_EQ(core::fingerprint_text(""), "cbf29ce484222325");
  EXPECT_EQ(core::fingerprint_text("jsi"), "45555f193a50a4b9");
  EXPECT_NE(core::fingerprint_text("a"), core::fingerprint_text("b"));
}

TEST(Checkpoint, RecordRoundTripIsBitExact) {
  core::ChunkRecord rec;
  rec.chunk = 5;
  rec.agg.units = 64;
  rec.agg.violations = 9;
  rec.agg.failures = 1;
  rec.agg.total_tcks = 123456789;
  rec.agg.generation_tcks = 100000000;
  rec.agg.observation_tcks = 23456789;
  rec.registry.counter("c.a").inc(42);
  rec.registry.gauge("g.pi").set(3.141592653589793);
  rec.registry.gauge("g.tiny").set(4.9406564584124654e-324);  // denormal
  rec.registry.histogram("h.x").observe(0.30000000000000004);
  rec.registry.histogram("h.x").observe(1e9);  // overflow bucket
  UnitOutcome fail;
  fail.name = "fake_23";
  fail.index = 23;
  fail.summary = "error: die 23 is cursed \"quoted\"";
  fail.failed = true;
  rec.outcomes.push_back(fail);

  std::ostringstream os;
  core::write_chunk_record(os, rec);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));

  const std::string path = temp_path("roundtrip.jsonl");
  core::CheckpointHeader header;
  header.fingerprint = core::fingerprint_text("spec");
  header.units = 640;
  header.chunk_size = 64;
  header.aggregate = true;
  {
    core::CheckpointWriter writer;
    writer.open(path, header, /*resume_existing=*/false);
    writer.append(rec);
  }
  const core::CheckpointData data = core::load_checkpoint(path);
  EXPECT_EQ(data.header.fingerprint, header.fingerprint);
  EXPECT_EQ(data.header.units, 640u);
  EXPECT_EQ(data.header.chunk_size, 64u);
  EXPECT_TRUE(data.header.aggregate);
  ASSERT_EQ(data.records.size(), 1u);
  const core::ChunkRecord& got = data.records[0];
  EXPECT_EQ(got.chunk, 5u);
  EXPECT_EQ(got.agg.units, 64u);
  EXPECT_EQ(got.agg.total_tcks, 123456789u);
  EXPECT_EQ(got.registry.counter_value("c.a"), 42u);
  // Bit-exact doubles, denormals included — the hex-bits encoding.
  EXPECT_EQ(got.registry.gauge_value("g.pi"), 3.141592653589793);
  EXPECT_EQ(got.registry.gauge_value("g.tiny"), 4.9406564584124654e-324);
  const obs::Histogram& h = got.registry.histograms().at("h.x");
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 0.30000000000000004 + 1e9);
  ASSERT_EQ(data.records.size(), 1u);
  ASSERT_FALSE(got.outcomes.empty());
  EXPECT_EQ(got.outcomes[0].index, 23u);
  EXPECT_EQ(got.outcomes[0].summary, "error: die 23 is cursed \"quoted\"");
  EXPECT_TRUE(got.outcomes[0].failed);
  std::remove(path.c_str());
}

TEST(Checkpoint, TornTailLineIsDropped) {
  const std::string path = temp_path("torn.jsonl");
  core::CheckpointHeader header;
  header.fingerprint = "f";
  header.units = 10;
  header.chunk_size = 1;
  header.aggregate = false;
  core::ChunkRecord rec;
  rec.chunk = 0;
  rec.agg.units = 1;
  {
    core::CheckpointWriter writer;
    writer.open(path, header, false);
    writer.append(rec);
  }
  // Simulate a writer killed mid-append: a syntactically torn last line.
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << "{\"chunk\":1,\"agg\":{\"uni";
  }
  const core::CheckpointData data = core::load_checkpoint(path);
  ASSERT_EQ(data.records.size(), 1u) << "the torn record must be dropped";
  EXPECT_EQ(data.records[0].chunk, 0u);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsWrongSchemaAndMissingFile) {
  EXPECT_THROW(core::load_checkpoint(temp_path("nonexistent.jsonl")),
               std::runtime_error);
  const std::string path = temp_path("badschema.jsonl");
  {
    std::ofstream os(path, std::ios::binary);
    os << "{\"schema\":\"something.else\"}\n";
  }
  EXPECT_THROW(core::load_checkpoint(path), core::CheckpointMismatchError);
  std::remove(path.c_str());
}

// ---- lazy source + chunked scheduling --------------------------------------

TEST(CheckpointRunner, SourceMatchesAddedUnits) {
  // The lazy path must be observationally identical to add()ing the same
  // units: same report text, same merged metrics.
  FakeSource src(27);
  CampaignConfig cfg;
  cfg.shards = 1;
  const CampaignResult from_source = run_once(src, cfg);

  CampaignRunner added(cfg);
  for (std::size_t i = 0; i < 27; ++i) added.add(src.unit(i));
  const CampaignResult from_add = added.run();

  EXPECT_EQ(from_source.to_text(), from_add.to_text());
  EXPECT_EQ(from_source.metrics.to_json(), from_add.metrics.to_json());
  EXPECT_EQ(from_source.failures, 1u);
}

TEST(CheckpointRunner, SourceAndAddAreMutuallyExclusive) {
  FakeSource src(3);
  CampaignRunner runner;
  runner.add(src.unit(0));
  runner.set_source(&src);
  EXPECT_THROW(runner.run(), std::invalid_argument);
}

TEST(CheckpointRunner, AggregateModeFoldsOutcomes) {
  FakeSource src(300);
  CampaignConfig cfg;
  cfg.shards = 1;
  const CampaignResult r = run_once(src, cfg);
  EXPECT_TRUE(r.aggregated);
  EXPECT_EQ(r.units_run, 300u);
  // Multiples of 7 below 300: 0, 7, ..., 294.
  EXPECT_EQ(r.violations, 43u);
  EXPECT_EQ(r.failures, 1u);
  // Only the failure is retained, addressed by its work-unit index.
  ASSERT_EQ(r.units.size(), 1u);
  EXPECT_EQ(r.units[0].index, 23u);
  EXPECT_TRUE(r.units[0].failed);
  EXPECT_NE(r.units[0].summary.find("cursed"), std::string::npos);
  EXPECT_NE(r.to_text().find("300 units (aggregated)"), std::string::npos);
  EXPECT_NE(r.to_text().find("[23] fake_23: FAIL"), std::string::npos);
}

TEST(CheckpointRunner, UnitCountDecidesTheResultShape) {
  // At the threshold every outcome is kept, one unit per chunk; one unit
  // past it the campaign aggregates in 8-unit chunks.
  FakeSource at(core::kTranscriptThreshold);
  CampaignRunner per_unit;
  per_unit.set_source(&at);
  EXPECT_FALSE(per_unit.aggregated());
  EXPECT_EQ(per_unit.effective_chunk_size(), 1u);
  const CampaignResult kept = per_unit.run();
  EXPECT_FALSE(kept.aggregated);
  ASSERT_EQ(kept.units.size(), core::kTranscriptThreshold);
  EXPECT_EQ(kept.units[23].index, 23u);
  EXPECT_TRUE(kept.units[23].failed);

  FakeSource past(core::kTranscriptThreshold + 1);
  CampaignRunner folded;
  folded.set_source(&past);
  EXPECT_TRUE(folded.aggregated());
  EXPECT_EQ(folded.effective_chunk_size(), 8u);
  const CampaignResult r = folded.run();
  EXPECT_TRUE(r.aggregated);
  EXPECT_EQ(r.units_run, core::kTranscriptThreshold + 1);
  ASSERT_EQ(r.units.size(), 1u);
  EXPECT_EQ(r.units[0].index, 23u);
}

TEST(CheckpointRunner, AddBuiltCampaignAggregatesPastThresholdToo) {
  // The rule lives in the runner, not in the sweep lowering: a campaign
  // of 129 add()ed units aggregates exactly like the same units served
  // by a lazy source.
  FakeSource src(core::kTranscriptThreshold + 1);
  CampaignConfig cfg;
  cfg.shards = 2;
  CampaignRunner added(cfg);
  for (std::size_t i = 0; i < src.count(); ++i) added.add(src.unit(i));
  const CampaignResult from_add = added.run();
  EXPECT_TRUE(from_add.aggregated);
  ASSERT_EQ(from_add.units.size(), 1u);
  EXPECT_EQ(from_add.units[0].index, 23u);

  const CampaignResult from_source = run_once(src, cfg);
  EXPECT_EQ(from_add.to_text(), from_source.to_text());
  EXPECT_EQ(from_add.metrics.to_json(), from_source.metrics.to_json());
}

TEST(CheckpointRunner, KeepEventsIsIncompatibleWithAggregateAndCheckpoint) {
  {
    FakeSource big(core::kTranscriptThreshold + 1);  // aggregated
    CampaignConfig cfg;
    cfg.keep_events = true;
    EXPECT_THROW(run_once(big, cfg), std::invalid_argument);
  }
  FakeSource src(4);
  {
    CampaignConfig cfg;
    cfg.keep_events = true;
    cfg.checkpoint_path = temp_path("never_written.jsonl");
    EXPECT_THROW(run_once(src, cfg), std::invalid_argument);
  }
  {
    CampaignConfig cfg;
    cfg.resume = true;  // resume without a checkpoint path
    EXPECT_THROW(run_once(src, cfg), std::invalid_argument);
  }
}

// ---- checkpoint + resume ----------------------------------------------------

/// Run to completion with max_chunks-sized steps, then compare against
/// the uninterrupted run — the kill-at-a-boundary simulation.
void expect_resume_identical(std::size_t units, std::size_t step,
                             std::size_t shards, const std::string& tag) {
  FakeSource src(units);
  CampaignConfig base;
  base.shards = shards;

  const CampaignResult whole = run_once(src, base);

  const std::string path = temp_path("resume_" + tag + ".jsonl");
  std::remove(path.c_str());
  CampaignConfig stepped = base;
  stepped.checkpoint_path = path;
  stepped.fingerprint = "test-spec";
  stepped.max_chunks = step;
  CampaignResult r;
  // Each iteration is one "process lifetime": at most `step` fresh
  // chunks, then die; the next lifetime resumes from the file.
  for (int lifetime = 0; lifetime < 64; ++lifetime) {
    r = run_once(src, stepped);
    if (r.complete) break;
    stepped.resume = true;
  }
  ASSERT_TRUE(r.complete) << tag;
  EXPECT_EQ(r.to_text(), whole.to_text()) << tag;
  EXPECT_EQ(r.metrics.to_json(), whole.metrics.to_json()) << tag;
  std::remove(path.c_str());
}

TEST(CheckpointRunner, ResumeByteIdenticalAcrossBoundaries) {
  // Several kill boundaries x both result shapes (300 units aggregate
  // in 38 chunks of 8 units, the last one of 4; 17 units keep one chunk
  // per unit), 1 and 4 shards.
  expect_resume_identical(300, 1, 1, "agg_s1_k1");
  expect_resume_identical(300, 2, 1, "agg_s1_k2");
  expect_resume_identical(300, 3, 4, "agg_s4_k3");
  expect_resume_identical(300, 1, 4, "agg_s4_k1");
  expect_resume_identical(17, 5, 1, "unit_s1_k5");
  expect_resume_identical(17, 4, 4, "unit_s4_k4");
}

TEST(CheckpointRunner, ResumeSkipsCompletedChunks) {
  FakeSource src(300);
  const std::string path = temp_path("skip.jsonl");
  std::remove(path.c_str());
  CampaignConfig cfg;
  cfg.shards = 1;
  cfg.checkpoint_path = path;
  cfg.max_chunks = 3;
  const CampaignResult first = run_once(src, cfg);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(src.materialized(), 24u);  // three 8-unit chunks

  src.reset_materialized();
  cfg.resume = true;
  cfg.max_chunks = 0;
  const CampaignResult second = run_once(src, cfg);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(src.materialized(), 276u)
      << "resume must only materialize the unfinished chunks";
  EXPECT_EQ(second.units_run, 300u);

  // A third run resumes a complete checkpoint: a pure merge pass.
  src.reset_materialized();
  const CampaignResult third = run_once(src, cfg);
  EXPECT_TRUE(third.complete);
  EXPECT_EQ(src.materialized(), 0u);
  EXPECT_EQ(third.to_text(), second.to_text());
  EXPECT_EQ(third.metrics.to_json(), second.metrics.to_json());
  std::remove(path.c_str());
}

TEST(CheckpointRunner, ResumeRejectsMismatchedCampaign) {
  FakeSource src(300);
  const std::string path = temp_path("mismatch.jsonl");
  std::remove(path.c_str());
  CampaignConfig cfg;
  cfg.shards = 1;
  cfg.checkpoint_path = path;
  cfg.fingerprint = "spec-A";
  cfg.max_chunks = 1;
  (void)run_once(src, cfg);

  // The rejection is typed: callers (the CLI, the serve daemon) can
  // distinguish "wrong campaign for this checkpoint" from generic
  // runtime failures. CheckpointMismatchError derives std::runtime_error,
  // so the broad catch sites keep working too.
  cfg.resume = true;
  cfg.fingerprint = "spec-B";
  EXPECT_THROW(run_once(src, cfg), core::CheckpointMismatchError);

  // Same identity, different unit count: a different layout (40 units
  // keep one chunk per unit, 300 aggregate in 8-unit chunks).
  cfg.fingerprint = "spec-A";
  FakeSource fewer(40);
  EXPECT_THROW(run_once(fewer, cfg), core::CheckpointMismatchError);
  std::remove(path.c_str());
}

TEST(CheckpointRunner, ResumeRejectsV1Checkpoint) {
  // v1 records carry the retired bus.table_* counters beside bus.cache_*;
  // folding them into this build's books would mix two counter families.
  // Same campaign, same layout, old schema: a typed rejection before any
  // unit runs, and the file is left as it was.
  FakeSource src(300);
  const std::string path = temp_path("v1.jsonl");
  const std::string layout =
      "\"fingerprint\":\"spec-A\",\"units\":300,\"chunk_size\":8,"
      "\"aggregate\":true}\n";
  const std::string v1 =
      "{\"schema\":\"jsi.checkpoint.v1\"," + layout +
      "{\"chunk\":0,\"agg\":{\"units\":8,\"violations\":0,"
      "\"failures\":0,\"total_tcks\":0,\"generation_tcks\":0,"
      "\"observation_tcks\":0},\"registry\":{\"counters\":"
      "{\"bus.cache_hits\":8,\"bus.table_hits\":1},\"gauges\":{},"
      "\"histograms\":{}},\"outcomes\":[]}\n";
  {
    std::ofstream os(path, std::ios::binary);
    os << v1;
  }
  CampaignConfig cfg;
  cfg.shards = 1;
  cfg.checkpoint_path = path;
  cfg.fingerprint = "spec-A";
  cfg.resume = true;
  EXPECT_THROW(run_once(src, cfg), core::CheckpointMismatchError);
  EXPECT_EQ(src.materialized(), 0u);
  std::ostringstream kept;
  kept << std::ifstream(path, std::ios::binary).rdbuf();
  EXPECT_EQ(kept.str(), v1);

  // The same header under this build's schema resumes: the schema alone
  // was the mismatch.
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "{\"schema\":\"" << core::kCheckpointSchema << "\"," << layout;
  }
  EXPECT_TRUE(run_once(src, cfg).complete);
  std::remove(path.c_str());
}

TEST(CheckpointRunner, ResumeRejects64WideCheckpoint) {
  // A checkpoint written when aggregated chunks were 64 units wide folds
  // different unit ranges per record, so its books cannot be resumed
  // into 8-unit chunks. Same campaign, this build's schema, old width: a
  // typed layout rejection before any unit runs, file left untouched.
  FakeSource src(300);
  const std::string path = temp_path("wide64.jsonl");
  const std::string wide =
      std::string("{\"schema\":\"") + core::kCheckpointSchema +
      "\",\"fingerprint\":\"spec-A\",\"units\":300,\"chunk_size\":64,"
      "\"aggregate\":true}\n";
  {
    std::ofstream os(path, std::ios::binary);
    os << wide;
  }
  CampaignConfig cfg;
  cfg.shards = 1;
  cfg.checkpoint_path = path;
  cfg.fingerprint = "spec-A";
  cfg.resume = true;
  try {
    (void)run_once(src, cfg);
    FAIL() << "a 64-wide checkpoint must be rejected";
  } catch (const core::CheckpointMismatchError& e) {
    EXPECT_NE(std::string(e.what()).find("layout mismatch"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(src.materialized(), 0u);
  EXPECT_EQ(slurp(path), wide);
  std::remove(path.c_str());
}

TEST(CheckpointRunner, ResumeRejectsOutOfRangeChunkId) {
  // The header matches this campaign exactly, so only the record's chunk
  // id (== the chunk count) is wrong. Resume must throw before any unit
  // runs instead of indexing past the per-chunk slots.
  FakeSource src(300);  // 38 chunks of at most 8 units: ids 0..37
  const std::string path = temp_path("chunk_oob.jsonl");
  CampaignConfig cfg;
  cfg.shards = 1;
  cfg.checkpoint_path = path;
  cfg.fingerprint = "spec-A";
  cfg.resume = true;
  CampaignRunner runner(cfg);
  runner.set_source(&src);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    core::write_checkpoint_header(os, runner.checkpoint_header());
    os << '\n';
    core::ChunkRecord rec;
    rec.chunk = 38;
    rec.agg.units = 8;
    core::write_chunk_record(os, rec);
    os << '\n';
  }
  try {
    (void)runner.run();
    FAIL() << "an out-of-range chunk id must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk id out of range"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(src.materialized(), 0u);
  std::remove(path.c_str());
}

TEST(CheckpointRunner, CheckpointGrowsByOneLinePerChunk) {
  FakeSource src(256);  // 32 chunks of 8 units
  const std::string path = temp_path("growth.jsonl");
  std::remove(path.c_str());
  CampaignConfig cfg;
  cfg.shards = 1;
  cfg.checkpoint_path = path;
  cfg.max_chunks = 2;
  (void)run_once(src, cfg);
  {
    const std::string text = slurp(path);
    std::size_t lines = 0;
    for (const char c : text) lines += c == '\n';
    EXPECT_EQ(lines, 3u) << "header + 2 chunk records";
  }
  cfg.resume = true;
  cfg.max_chunks = 0;
  (void)run_once(src, cfg);
  {
    const std::string text = slurp(path);
    std::size_t lines = 0;
    for (const char c : text) lines += c == '\n';
    EXPECT_EQ(lines, 33u) << "header + 32 chunk records after completion";
  }
  std::remove(path.c_str());
}

// ---- hand-written checkpoint files ----------------------------------------

/// One serialized chunk record line for synthetic checkpoint files.
std::string record_line(std::size_t chunk) {
  core::ChunkRecord rec;
  rec.chunk = chunk;
  rec.agg.units = 1;
  std::ostringstream os;
  core::write_chunk_record(os, rec);
  os << '\n';
  return os.str();
}

core::CheckpointHeader synthetic_header() {
  core::CheckpointHeader h;
  h.fingerprint = "synthetic";
  h.units = 6;
  h.chunk_size = 1;
  h.aggregate = true;
  return h;
}

TEST(Checkpoint, ResumeTruncatesTornTailBeforeAppending) {
  // The companion glue bug: appending fresh records directly after an
  // unterminated torn fragment produces one unparseable glued line —
  // losing both the fragment (expected) and the fresh record (not
  // acceptable). open(resume) must cut back to the durable prefix first.
  const std::string path = temp_path("glue.jsonl");
  {
    core::CheckpointWriter writer;
    writer.open(path, synthetic_header(), false);
  }
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << record_line(0) << "{\"chunk\":1,\"agg\":{\"uni";
  }
  {
    core::CheckpointWriter writer;
    writer.open(path, synthetic_header(), /*resume_existing=*/true);
    core::ChunkRecord rec;
    rec.chunk = 2;
    rec.agg.units = 1;
    writer.append(rec);
  }
  const core::CheckpointData data = core::load_checkpoint(path);
  ASSERT_EQ(data.records.size(), 2u)
      << "the record appended after resume must not glue onto the torn tail";
  EXPECT_EQ(data.records[0].chunk, 0u);
  EXPECT_EQ(data.records[1].chunk, 2u);
  std::remove(path.c_str());
}

// ---- cooperative cancel ----------------------------------------------------

TEST(CheckpointRunner, PreSetCancelFlagStopsBeforeAnyChunk) {
  FakeSource src(300);
  std::atomic<bool> cancel{true};
  CampaignConfig cfg;
  cfg.shards = 4;
  cfg.cancel = &cancel;
  const CampaignResult r = run_once(src, cfg);
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.units_run, 0u);
  EXPECT_EQ(src.materialized(), 0u);
}

TEST(CheckpointRunner, CancelMidRunStopsClaimingChunks) {
  // A unit raises the flag itself: everything in already-claimed chunks
  // still folds (the runner only polls between chunk claims — cancel is
  // cooperative, not preemptive), but no worker claims another chunk.
  FakeSource src(400);
  std::atomic<bool> cancel{false};
  CampaignConfig cfg;
  cfg.shards = 1;  // deterministic: one worker, chunks claimed in order
  cfg.cancel = &cancel;
  CampaignRunner runner(cfg);
  // Wrap the source: unit 150 flips the flag.
  class Wrap : public UnitSource {
   public:
    Wrap(const FakeSource& inner, std::atomic<bool>& flag)
        : inner_(inner), flag_(flag) {}
    std::size_t count() const override { return inner_.count(); }
    CampaignUnit unit(std::size_t index) const override {
      CampaignUnit u = inner_.unit(index);
      if (index == 150) {
        auto run = std::move(u.run);
        u.run = [run = std::move(run), this](CampaignContext& ctx) {
          flag_.store(true, std::memory_order_relaxed);
          return run(ctx);
        };
      }
      return u;
    }

   private:
    const FakeSource& inner_;
    std::atomic<bool>& flag_;
  } wrapped(src, cancel);
  runner.set_source(&wrapped);
  const CampaignResult r = runner.run();
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.complete);
  // Unit 150 lives in chunk 18 (units 144..151): chunks 0..18 were
  // claimed before the flag rose; chunk 19 onward must never start.
  EXPECT_EQ(r.units_run, 152u);
}

TEST(CheckpointRunner, CancelledRunKeepsItsCheckpointResumable) {
  // Cancel is just a premature stop: whatever was recorded must resume
  // to a byte-identical completion, exactly like a kill.
  FakeSource src(300);
  const std::string path = temp_path("cancel_resume.jsonl");
  std::remove(path.c_str());

  CampaignConfig base;
  base.shards = 1;
  const CampaignResult whole = run_once(src, base);

  std::atomic<bool> cancel{false};
  CampaignConfig cfg = base;
  cfg.checkpoint_path = path;
  cfg.fingerprint = "cancel-test";
  cfg.max_chunks = 2;  // stop early the checkpointed way...
  (void)run_once(src, cfg);
  cancel.store(true);
  cfg.max_chunks = 0;
  cfg.resume = true;
  cfg.cancel = &cancel;  // ...then a resume that is cancelled immediately
  const CampaignResult stalled = run_once(src, cfg);
  EXPECT_TRUE(stalled.cancelled);
  EXPECT_FALSE(stalled.complete);

  cancel.store(false);
  const CampaignResult finished = run_once(src, cfg);
  EXPECT_TRUE(finished.complete);
  EXPECT_FALSE(finished.cancelled);
  EXPECT_EQ(finished.to_text(), whole.to_text());
  EXPECT_EQ(finished.metrics.to_json(), whole.metrics.to_json());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jsi
