// Traced run: the per-layer split of one workload. It first runs one
// untraced repetition (load_scenario + run_scenario + write_artifacts),
// then the same campaign again through its public pieces with a span
// around each call, so the difference is the tracing overhead. It then
// replays a sample of the campaign's units through the lower layers'
// public functions (bus build, tables, kernel, detectors, planner,
// engine, registry merge), writes and reloads checkpoint records, runs
// a batch of the workload's texts through an in-process serve::Server,
// and parses the texts and result frames with util::json.
//
// Every span records its name, start, end, parent span and request id
// (unit index or job id). Spans stay in memory and are written to
// spans.jsonl in the work directory when the run ends. Raw per-call
// samples go to RunRecord::samples under "L:<metric>" (run.py takes
// their median); ratios and totals go to RunRecord::values with their
// base under "B:<metric>" and each layer's failed operations under
// "F:<layer>".
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "common.hpp"
#include "core/checkpoint.hpp"
#include "core/plan.hpp"
#include "core/session.hpp"
#include "core/soc.hpp"
#include "mafm/fault.hpp"
#include "obs/hub.hpp"
#include "scenario/build.hpp"
#include "scenario/parse.hpp"
#include "scenario/run.hpp"
#include "scenario/sweep.hpp"
#include "serve/server.hpp"
#include "si/detectors.hpp"
#include "util/json.hpp"

namespace jsib {

namespace sc = jsi::scenario;
namespace core = jsi::core;
namespace si = jsi::si;

namespace {

// Units replayed through the lower layers per traced campaign.
constexpr std::size_t kReplayUnits = 16;
// Serve jobs submitted to the in-process daemon for serve_jobs.
constexpr std::size_t kServeTraceJobs = 8;

struct Span {
  std::string name;
  double start_ms = 0, end_ms = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

class Spans {
 public:
  int begin(std::string name, int parent, std::uint64_t request) {
    spans_.push_back(Span{std::move(name), now_ms(), 0.0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  double end(int id) {
    spans_[id].end_ms = now_ms();
    return spans_[id].end_ms - spans_[id].start_ms;
  }
  void write(const std::string& path) const {
    std::ofstream os(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonOut j;
      j.begin_object()
          .key("id").uint(i)
          .key("name").str(s.name)
          .key("start_ms").num(s.start_ms)
          .key("end_ms").num(s.end_ms)
          .key("parent").num(s.parent)
          .key("request").uint(s.request)
          .end_object();
      os << j.text() << '\n';
    }
  }

 private:
  double now_ms() const { return ms_between(t0_, Clock::now()); }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// Accumulates the traced run's layer metrics into a RunRecord.
struct Ledger {
  RunRecord& rec;
  Spans spans;
  std::map<std::string, double> totals;  ///< sums behind ratio metrics

  void sample(const std::string& metric, double v) {
    rec.samples["L:" + metric].push_back(v);
  }
  void value(const std::string& metric, double v, double base) {
    rec.values["L:" + metric] = v;
    rec.values["B:" + metric] = base;
  }
  void add(const std::string& key, double v) { totals[key] += v; }
  void failed(const std::string& layer, const std::string& why) {
    rec.values["F:" + layer] += 1;
    rec.fail.add(1, layer + ": " + why);
  }
  void attempt(std::uint64_t n = 1) { rec.attempted += n; }
};

jsi::obs::TracerConfig tracer_config(const sc::ScenarioSpec& spec) {
  jsi::obs::TracerConfig t;
  t.capacity = spec.obs.trace_capacity;
  t.tap_edges = spec.obs.tap_edges;
  t.cache_lookups = spec.obs.cache_lookups;
  t.tck_period_ps = spec.obs.tck_period_ps;
  return t;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// One unit of a campaign as the lower layers see it.
struct UnitPlan {
  std::size_t index = 0;
  core::SocConfig cfg;
  std::vector<sc::DefectSpec> defects;
  sc::SessionKind kind = sc::SessionKind::Enhanced;
  core::ObservationMethod method = core::ObservationMethod::OnceAtEnd;
  std::size_t guard = 2;
};

bool replayable(sc::SessionKind k) {
  return k == sc::SessionKind::Enhanced ||
         k == sc::SessionKind::Conventional ||
         k == sc::SessionKind::Parallel;
}

/// Materialize up to kReplayUnits units through the scenario layer's
/// public per-unit functions (timed as scenario.unit_us).
std::vector<UnitPlan> materialize(const sc::ScenarioSpec& spec, Ledger& L,
                                  int parent) {
  std::vector<UnitPlan> units;
  if (spec.topology.kind != sc::TopologyKind::Soc) return units;
  if (spec.sweep) {
    const sc::SweepUnitSource src(spec);
    const sc::SessionSpec& s = spec.sessions.front();
    if (!replayable(s.kind)) return units;
    const std::size_t n = std::min(kReplayUnits, src.count());
    for (std::size_t j = 0; j < n; ++j) {
      UnitPlan u;
      u.index = j * src.count() / n;
      const int id = L.spans.begin("scenario.unit", parent, u.index);
      u.cfg = src.unit_config(u.index);
      u.defects = src.unit_defects(u.index);
      L.sample("scenario.unit_us", L.spans.end(id) * 1e3);
      u.kind = s.kind;
      u.method = sc::observation_method(s);
      u.guard = s.guard;
      units.push_back(std::move(u));
    }
    return units;
  }
  for (std::size_t i = 0; i < spec.sessions.size(); ++i) {
    const sc::SessionSpec& s = spec.sessions[i];
    if (!replayable(s.kind)) continue;
    UnitPlan u;
    u.index = i;
    const int id = L.spans.begin("scenario.unit", parent, i);
    u.cfg = sc::soc_config(spec);
    u.cfg.enhanced = s.kind != sc::SessionKind::Conventional;
    u.defects = sc::resolved_defects(spec);
    for (const sc::DefectSpec& d : s.defects) {
      if (d.kind != sc::DefectKind::RandomCrosstalk) u.defects.push_back(d);
    }
    L.sample("scenario.unit_us", L.spans.end(id) * 1e3);
    u.kind = s.kind;
    u.method = sc::observation_method(s);
    u.guard = s.guard;
    units.push_back(std::move(u));
  }
  return units;
}

/// Replay one unit through si, core and obs, each call timed.
void replay_unit(const UnitPlan& u, const sc::ScenarioSpec& spec,
                 const si::CoupledBus* proto, jsi::obs::Registry& merged,
                 Ledger& L, int parent) {
  const si::BusParams p = core::effective_bus_params(u.cfg);
  const std::size_t n = p.n_wires;
  const std::uint64_t req = u.index;

  // si.bus: a fresh bus for this die, with its defects.
  int id = L.spans.begin("si.bus.build", parent, req);
  si::CoupledBus bus(p);
  for (const sc::DefectSpec& d : u.defects) sc::apply_defect(bus, d);
  L.sample("si.bus.build_us", L.spans.end(id) * 1e3);

  id = L.spans.begin("si.tables.precompile", parent, req);
  bus.precompile_tables();
  L.sample("si.tables.precompile_ms", L.spans.end(id));

  std::vector<jsi::mafm::VectorPair> pairs;
  for (const jsi::mafm::MaFault f : jsi::mafm::kAllFaults) {
    for (std::size_t v = 0; v < n; ++v) {
      pairs.push_back(jsi::mafm::vectors_for(f, n, v));
    }
  }

  // si.kernel: the raw solver over every MA pair, tables and memo off.
  si::CoupledBus raw = bus.clone();
  raw.set_tables_enabled(false);
  raw.set_cache_enabled(false);
  id = L.spans.begin("si.kernel", parent, req);
  for (const auto& vp : pairs) {
    const si::TransitionBatch b = raw.transition_batch(vp.v1, vp.v2);
    if (b.n_wires != n) L.failed("si.kernel", "short transition batch");
  }
  const double kernel_ms = L.spans.end(id);
  L.add("kernel.transitions", static_cast<double>(pairs.size()));
  L.add("kernel.ns", kernel_ms * 1e6);
  L.add("kernel.samples",
        static_cast<double>(pairs.size() * n * p.samples));

  // si.detectors: ND and SD cells over every wire of every MA transition
  // (table-served, so the lookups are outside the timed calls).
  si::NdCell nd(u.cfg.nd);
  si::SdCell sd(u.cfg.sd);
  double det_ns = 0;
  std::uint64_t observations = 0;
  id = L.spans.begin("si.detectors", parent, req);
  for (const auto& vp : pairs) {
    const si::TransitionBatch b = bus.transition_batch(vp.v1, vp.v2);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t w = 0; w < n; ++w) {
      const jsi::util::Logic before = jsi::util::to_logic(vp.v1.get(w));
      const jsi::util::Logic after = jsi::util::to_logic(vp.v2.get(w));
      nd.observe(b.wire(w), before, after);
      sd.observe(b.wire(w), before, after);
    }
    det_ns += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                  .count();
    observations += 2 * n;
  }
  L.spans.end(id);
  L.add("detectors.ns", det_ns);
  L.add("detectors.observations", static_cast<double>(observations));

  // core.plan and core.engine on the bus the campaign would hand this
  // unit: a clone of the warmed prototype when the parameters match
  // exactly, else a fresh build.
  si::CoupledBus ebus = (si::matches_width(proto, n) &&
                         si::same_params(proto->params(), p))
                            ? proto->clone()
                            : si::CoupledBus(p);
  for (const sc::DefectSpec& d : u.defects) sc::apply_defect(ebus, d);
  const std::uint64_t table_misses0 = ebus.table_misses();
  core::SiSocDevice soc(u.cfg, ebus);
  jsi::obs::Hub hub(tracer_config(spec));
  hub.set_strict(spec.campaign.strict_metrics);

  const bool conv = u.kind == sc::SessionKind::Conventional;
  std::unique_ptr<core::SiTestSession> enhanced;
  std::unique_ptr<core::ConventionalSession> conventional;
  if (conv) {
    conventional = std::make_unique<core::ConventionalSession>(soc);
  } else {
    enhanced = std::make_unique<core::SiTestSession>(soc);
  }

  id = L.spans.begin("core.plan", parent, req);
  const core::TestPlan plan =
      conv ? conventional->plan(u.method)
      : u.kind == sc::SessionKind::Parallel
          ? enhanced->plan_parallel(u.method, u.guard)
          : enhanced->plan(u.method);
  const core::PlanCost cost = core::dry_run_cost(plan);
  L.sample("core.plan.us", L.spans.end(id) * 1e3);
  L.sample("core.plan.ops", static_cast<double>(plan.ops.size()));

  id = L.spans.begin("core.engine", parent, req);
  core::IntegrityReport rep;
  try {
    if (conv) {
      conventional->set_sink(&hub);
      rep = conventional->run(u.method);
    } else {
      enhanced->set_sink(&hub);
      rep = u.kind == sc::SessionKind::Parallel
                ? enhanced->run_parallel(u.method, u.guard)
                : enhanced->run(u.method);
    }
  } catch (const std::exception& e) {
    L.failed("core.engine", e.what());
  }
  const double engine_ms = L.spans.end(id);
  if (rep.total_tcks != cost.total_tcks) {
    L.failed("core.plan", "engine TCKs != dry_run_cost");
  }
  L.sample("core.engine.ms", engine_ms);
  L.sample("core.engine.tcks", static_cast<double>(rep.total_tcks));
  L.add("engine.ns", engine_ms * 1e6);
  L.add("engine.tcks", static_cast<double>(rep.total_tcks));
  // Derived: the engine span minus the standalone si spans for the same
  // transitions. The kernel span only counts when the engine's bus had
  // to solve its MA tables itself (a fresh, not a cloned, bus).
  const bool solved = ebus.table_misses() > table_misses0;
  L.sample("core.engine.self_ms",
           engine_ms - (solved ? kernel_ms : 0.0) - det_ns / 1e6);

  id = L.spans.begin("obs.merge", parent, req);
  merged.merge(hub.registry());
  L.sample("obs.merge_us_per_unit", L.spans.end(id) * 1e3);
}

/// The traced campaign of one scenario file plus its untraced twin.
struct Traced {
  sc::ScenarioSpec spec;
  std::unique_ptr<si::CoupledBus> proto;
  Reference ref;
};

Traced trace_campaign(const std::string& path, const Manifest& m,
                      const Args& a, Ledger& L, std::uint64_t request) {
  Traced t;
  const std::string ck = a.work_dir + "/checkpoint.jsonl";
  t.ref = make_reference(sc::load_scenario(path), L.rec.fail);

  // Untraced repetition, exactly as the end-to-end runs time it; the
  // first one only warms the worker threads' allocator arenas.
  double untraced_ms = 0;
  for (int warm = 1; warm >= 0; --warm) {
    const Clock::time_point u0 = Clock::now();
    const sc::ScenarioSpec spec = sc::load_scenario(path);
    sc::RunOptions ro;
    ro.shards = m.shards;
    if (m.checkpoint) {
      std::filesystem::remove(ck);
      ro.checkpoint_path = ck;
    }
    sc::write_artifacts(a.work_dir + "/untraced", sc::run_scenario(spec, ro));
    untraced_ms = ms_between(u0, Clock::now());
  }

  // Traced repetition through the public pieces of run_scenario.
  const int root = L.spans.begin("campaign", -1, request);
  int id = L.spans.begin("scenario.parse", root, request);
  t.spec = sc::load_scenario(path);
  L.sample("scenario.parse_ms", L.spans.end(id));

  sc::BuildOptions bo;
  bo.shards = m.shards;
  if (m.checkpoint) {
    std::filesystem::remove(ck);
    bo.checkpoint_path = ck;
  }
  sc::TelemetrySpec tele;  // per-worker busy/idle; one sample at each end
  tele.enabled = true;
  tele.interval_ms = 3'600'000;
  bo.telemetry = tele;
  id = L.spans.begin("scenario.build", root, request);
  sc::ScenarioCampaign campaign = sc::build_campaign(t.spec, bo);
  L.sample("scenario.build_ms", L.spans.end(id));

  // Page faults are taken over the whole run (all workers): the fresh
  // per-die buses are where a campaign's memory churn comes from.
  const std::uint64_t mf0 = minor_faults_self();
  id = L.spans.begin("core.campaign", root, request);
  sc::ScenarioOutcome out;
  out.result = campaign.run();
  const double run_ms = L.spans.end(id);
  L.add("campaign.minor_faults",
        static_cast<double>(minor_faults_self() - mf0));
  L.add("campaign.units", static_cast<double>(out.result.units_run));

  id = L.spans.begin("scenario.render", root, request);
  out.report_text = out.result.to_text();
  out.yield_json = sc::render_yield_json(t.spec, out.result);
  L.sample("scenario.render_ms", L.spans.end(id));

  id = L.spans.begin("obs.to_json", root, request);
  out.metrics_json = out.result.metrics.to_json() + "\n";
  L.sample("obs.to_json_ms", L.spans.end(id));

  id = L.spans.begin("scenario.write_artifacts", root, request);
  sc::write_artifacts(a.work_dir + "/traced", out);
  L.spans.end(id);
  const double traced_ms = L.spans.end(root);
  L.rec.samples["trace.untraced_ms"].push_back(untraced_ms);
  L.rec.samples["trace.traced_ms"].push_back(traced_ms);

  L.attempt(out.result.units_run);
  L.rec.fail.add(out.result.failures, t.spec.name + ": units threw");
  if (check_artifacts(t.spec.name + " (traced)", out.report_text,
                      out.metrics_json, out.yield_json, t.ref,
                      L.rec.fail) != 0) {
    L.rec.values["F:scenario"] += 1;
  }
  if (check_result(t.spec, out.result, L.rec.fail) != 0) {
    L.rec.values["F:core.campaign"] += 1;
  }

  // core.campaign: chunk layout and worker utilization.
  const std::size_t chunk = campaign.runner().effective_chunk_size();
  L.add("campaign.chunks",
        static_cast<double>((out.result.units_run + chunk - 1) / chunk));
  L.add("campaign.count", 1);
  if (out.result.telemetry) {
    for (const jsi::obs::WorkerSnapshot& w : out.result.telemetry->workers) {
      const double busy_ms = w.busy_ns / 1e6, idle_ms = w.idle_ns / 1e6;
      L.add("campaign.busy_ms", busy_ms);
      L.add("campaign.idle_ms", idle_ms);
      L.sample("core.campaign.tail_idle_ms",
               std::max(0.0, run_ms - busy_ms - idle_ms));
    }
  }
  const jsi::obs::Registry& reg = out.result.metrics;
  L.add("table.hits", reg.counter_value("bus.table_hits"));
  L.add("table.misses", reg.counter_value("bus.table_misses"));
  L.add("memo.hits", reg.counter_value("bus.cache_hits"));
  L.add("memo.misses", reg.counter_value("bus.cache_misses"));

  if (campaign.prototype() != nullptr) {
    t.proto = std::make_unique<si::CoupledBus>(campaign.prototype()->clone());
  }
  return t;
}

/// Write records to a fresh checkpoint file one flushed line at a time
/// (as CheckpointWriter::append does), then load the file back.
void trace_checkpoint(const std::vector<core::ChunkRecord>& records,
                      const Args& a, Ledger& L, int parent) {
  const std::string path = a.work_dir + "/trace-checkpoint.jsonl";
  core::CheckpointHeader h;
  h.fingerprint = "jsibench";
  h.units = records.size();
  h.chunk_size = 1;
  std::size_t header_bytes = 0;
  {
    std::ofstream os(path, std::ios::trunc);
    std::ostringstream hs;
    core::write_checkpoint_header(hs, h);
    header_bytes = hs.str().size() + 1;
    os << hs.str() << '\n';
    for (const core::ChunkRecord& r : records) {
      const int id = L.spans.begin("core.checkpoint.write", parent, r.chunk);
      core::write_chunk_record(os, r);
      os << '\n';
      os.flush();
      L.sample("core.checkpoint.write_us_per_chunk", L.spans.end(id) * 1e3);
      if (!os) L.failed("core.checkpoint", "write failed");
    }
  }
  const double bytes = static_cast<double>(std::filesystem::file_size(path));
  L.value("core.checkpoint.bytes_per_chunk",
          ratio(bytes - header_bytes, records.size()),
          static_cast<double>(records.size()));
  const int id = L.spans.begin("core.checkpoint.load", parent, 0);
  try {
    const core::CheckpointData d = core::load_checkpoint(path);
    if (d.records.size() != records.size()) {
      L.failed("core.checkpoint", "reloaded record count differs");
    }
  } catch (const std::exception& e) {
    L.failed("core.checkpoint", e.what());
  }
  L.value("core.checkpoint.load_ms", L.spans.end(id),
          static_cast<double>(records.size()));
  L.attempt(records.size());
}

/// Joins the in-process daemon's poll loop on every exit path; an error
/// the loop throws lands in `error` instead of escaping its thread.
class ServerThread {
 public:
  ServerThread(jsi::serve::Server& s, std::string& error) : server_(s) {
    server_.start();
    thread_ = std::thread([this, &error] {
      try {
        server_.serve();
      } catch (const std::exception& e) {
        error = e.what();
      }
    });
  }
  ~ServerThread() {
    server_.request_drain();
    thread_.join();
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

 private:
  jsi::serve::Server& server_;
  std::thread thread_;
};

void trace_serve(const std::vector<std::string>& texts,
                 const std::vector<const Reference*>& refs,
                 const Manifest& m, Ledger& L,
                 std::vector<std::string>& frames) {
  jsi::serve::ServerConfig cfg;
  cfg.unix_path = "trace.sock";  // relative: cwd is the work dir
  cfg.pool = m.pool;
  jsi::serve::Server server(cfg);
  std::size_t refused = 0;
  std::string loop_error;
  {
    ServerThread loop(server, loop_error);
    jsi::serve::Client c = jsi::serve::Client::connect_unix(cfg.unix_path);
    // Submit the whole batch first so later jobs queue behind the pool.
    std::vector<std::optional<std::uint64_t>> ids;
    for (const std::string& text : texts) {
      std::string err;
      ids.push_back(submit_job(c, text, err));
      if (!ids.back()) {
        ++refused;
        L.failed("serve", "refused: " + err);
      }
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (!ids[i]) continue;
      const int id = L.spans.begin("serve.job", -1, *ids[i]);
      const JobResult r = wait_and_fetch(c, *ids[i]);
      L.spans.end(id);
      if (!r.ok) {
        L.failed("serve", r.error);
        continue;
      }
      L.sample("serve.result_bytes", static_cast<double>(r.frame.size()));
      frames.push_back(r.frame);
      if (check_artifacts("serve (traced)", r.report, r.metrics, r.yield,
                          *refs[i], L.rec.fail) != 0) {
        L.rec.values["F:serve"] += 1;
      }
    }
    L.attempt(texts.size());
  }
  if (!loop_error.empty()) L.failed("serve", "poll loop: " + loop_error);
  const jsi::obs::Registry snap = server.metrics_snapshot();
  const auto& hists = snap.histograms();
  const auto mean_of = [&](const char* name) {
    const auto it = hists.find(name);
    return it == hists.end() ? 0.0 : it->second.mean();
  };
  const double jobs = static_cast<double>(
      snap.counter_value("serve.jobs_completed"));
  L.value("serve.queue_wait_ms", mean_of("serve.queue_wait_ms"), jobs);
  L.value("serve.job_wall_ms", mean_of("serve.job_wall_ms"), jobs);
  L.value("serve.refused",
          static_cast<double>(
              refused + snap.counter_value("serve.rejected_queue_full") +
              snap.counter_value("serve.rejected_draining") +
              snap.counter_value("serve.rejected_invalid")),
          static_cast<double>(texts.size()));
}

void trace_json(const std::vector<std::string>& docs, Ledger& L) {
  double bytes = 0;
  const Clock::time_point t0 = Clock::now();
  const int id = L.spans.begin("util.json.parse", -1, 0);
  for (int pass = 0; pass < 3 || seconds_since(t0) < 0.05; ++pass) {
    for (const std::string& d : docs) {
      std::string err;
      if (!jsi::util::json::parse(d, &err)) {
        L.failed("util.json", err);
      }
      bytes += static_cast<double>(d.size());
    }
  }
  const double secs = L.spans.end(id) / 1e3;
  L.value("util.json.parse_mb_per_s", ratio(bytes / 1e6, secs), bytes);
}

}  // namespace

void run_trace(const Args& a, const Manifest& m, RunRecord& rec) {
  Ledger L{rec, {}, {}};
  const bool serve = !m.jobs.empty();

  // The campaigns to trace: the workload's input, or for serve_jobs each
  // distinct job text.
  const std::vector<std::string>& paths = serve ? m.jobs : m.inputs;
  std::vector<std::string> docs;
  std::vector<Traced> traced;
  jsi::obs::Registry merged;
  std::vector<core::ChunkRecord> records;
  for (std::size_t i = 0; i < (serve ? paths.size() : 1); ++i) {
    docs.push_back(read_file(paths[i]));
    traced.push_back(trace_campaign(paths[i], m, a, L, i));
    const Traced& t = traced.back();
    const int root = L.spans.begin("replay", -1, i);
    for (const UnitPlan& u : materialize(t.spec, L, root)) {
      L.attempt();
      try {
        replay_unit(u, t.spec, t.proto.get(), merged, L, root);
      } catch (const std::exception& e) {
        L.failed("si.bus", e.what());
      }
    }
    L.spans.end(root);
  }

  // Checkpoint records: the sweep's own sidecar when it ran with one,
  // else one record per replayed unit registry shape.
  if (m.checkpoint) {
    records = core::load_checkpoint(a.work_dir + "/checkpoint.jsonl").records;
  } else {
    for (std::size_t c = 0; c < kReplayUnits; ++c) {
      core::ChunkRecord r;
      r.chunk = c;
      r.agg.units = 1;
      r.registry = merged;
      records.push_back(std::move(r));
    }
  }
  trace_checkpoint(records, a, L, -1);

  // Serve: the workload's own text, or the first jobs of the generated
  // order for serve_jobs.
  std::vector<std::string> jobs;
  std::vector<const Reference*> refs;
  if (serve) {
    for (std::size_t i = 0; i < kServeTraceJobs && i < m.order.size(); ++i) {
      jobs.push_back(docs[m.order[i]]);
      refs.push_back(&traced[m.order[i]].ref);
    }
  } else {
    jobs.push_back(docs.front());
    refs.push_back(&traced.front().ref);
  }
  std::vector<std::string> frames;
  trace_serve(jobs, refs, m, L, frames);

  docs.insert(docs.end(), frames.begin(), frames.end());
  trace_json(docs, L);

  // Ratios and rates from the accumulated totals.
  auto& v = L.totals;
  L.value("si.bus.minor_faults_per_die",
          ratio(v["campaign.minor_faults"], v["campaign.units"]),
          v["campaign.units"]);
  L.value("si.tables.hit_rate",
          ratio(v["table.hits"], v["table.hits"] + v["table.misses"]),
          v["table.hits"] + v["table.misses"]);
  L.value("si.memo.hit_rate",
          ratio(v["memo.hits"], v["memo.hits"] + v["memo.misses"]),
          v["memo.hits"] + v["memo.misses"]);
  L.value("si.kernel.transitions_per_s",
          ratio(v["kernel.transitions"], v["kernel.ns"] / 1e9),
          v["kernel.transitions"]);
  L.value("si.kernel.ns_per_sample",
          ratio(v["kernel.ns"], v["kernel.samples"]),
          v["kernel.samples"]);
  L.value("si.detectors.observations", v["detectors.observations"],
          static_cast<double>(rec.samples["L:si.bus.build_us"].size()));
  L.value("si.detectors.ns_per_observation",
          ratio(v["detectors.ns"], v["detectors.observations"]),
          v["detectors.observations"]);
  L.value("core.engine.ns_per_tck",
          ratio(v["engine.ns"], v["engine.tcks"]), v["engine.tcks"]);
  L.value("core.campaign.chunks", v["campaign.chunks"],
          v["campaign.count"]);
  L.value("core.campaign.busy_frac",
          ratio(v["campaign.busy_ms"],
                v["campaign.busy_ms"] + v["campaign.idle_ms"]),
          v["campaign.busy_ms"] + v["campaign.idle_ms"]);

  L.spans.write(a.work_dir + "/spans.jsonl");
  rec.values["peak_rss_kb"] = static_cast<double>(peak_rss_kb_self());
}

}  // namespace jsib
