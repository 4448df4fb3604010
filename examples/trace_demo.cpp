// Observability demo: run G-SITEST + O-SITEST on a defective 8-wire bus
// with the full obs::Hub attached, an obs::Tracer recording its stamped
// stream, and export every view the layer offers, all on the same
// 10 ns-per-TCK timebase:
//
//   trace_demo.trace.json   Chrome trace_event JSON — open in Perfetto
//                           (ui.perfetto.dev) or chrome://tracing; the
//                           skew-violation latch shows up as an instant
//                           "SD" marker inside the Readout span.
//   trace_demo.jsonl        the same records, one JSON object per line.
//   trace_demo.metrics.json counters/histograms (TCK budget by phase,
//                           cache hit rate, detector firings).
//   trace_demo.vcd          detector firings as VCD pulses; timestamps
//                           equal the t_ps field of the JSONL records,
//                           so GTKWave and Perfetto cursors line up.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "obs/hub.hpp"
#include "obs/tracer.hpp"
#include "sim/vcd.hpp"

int main() {
  using namespace jsi;

  constexpr std::size_t kN = 8;
  core::SocConfig cfg;
  cfg.n_wires = kN;
  core::SiSocDevice soc(cfg);
  // A hot aggressor pair and a slow wire: the first produces noise
  // detector (ND) hits, the second a skew violation latched by the slew
  // detector (SD).
  soc.bus().inject_crosstalk_defect(3, 6.0);
  soc.bus().add_series_resistance(5, 900.0);

  core::SiTestSession session(soc);
  obs::Hub hub;  // 10 ns TCK
  obs::Tracer tracer;  // defaults: 64k-event ring, per-TCK edges on
  hub.add_sink(&tracer);
  session.set_sink(&hub);
  const auto report = session.run(core::ObservationMethod::PerPattern);

  {
    std::ofstream os("trace_demo.trace.json");
    tracer.write_chrome_trace(os);
  }
  {
    std::ofstream os("trace_demo.jsonl");
    tracer.write_jsonl(os);
  }
  {
    std::ofstream os("trace_demo.metrics.json");
    os << hub.registry().to_json() << "\n";
  }

  // VCD cross-link: one pulse signal per detector/wire, driven at the
  // trace records' own time_ps stamps.
  std::uint64_t first_sd_tck = 0;
  {
    sim::VcdWriter vcd("trace_demo.vcd");
    std::vector<sim::VcdWriter::Id> nd_ids, sd_ids;
    for (std::size_t w = 0; w < kN; ++w) {
      nd_ids.push_back(vcd.add_signal("detector.nd.w" + std::to_string(w)));
      sd_ids.push_back(vcd.add_signal("detector.sd.w" + std::to_string(w)));
    }
    vcd.begin();
    for (std::size_t w = 0; w < kN; ++w) {
      vcd.change(nd_ids[w], util::Logic::L0, 0);
      vcd.change(sd_ids[w], util::Logic::L0, 0);
    }
    // The writer wants a monotonic timeline, and several detectors can
    // fire on one TCK — buffer the pulse edges and emit them sorted.
    struct Change {
      std::uint64_t t;
      sim::VcdWriter::Id id;
      util::Logic v;
    };
    std::vector<Change> changes;
    for (const obs::Event& e : tracer.events()) {
      if (e.kind != obs::EventKind::DetectorFired) continue;
      const auto w = static_cast<std::size_t>(e.a);
      const bool is_sd = std::string(e.name) == "SD";
      if (is_sd && first_sd_tck == 0) first_sd_tck = e.tck;
      const auto& ids = is_sd ? sd_ids : nd_ids;
      changes.push_back({e.time_ps, ids[w], util::Logic::L1});
      changes.push_back({e.time_ps + 5000, ids[w], util::Logic::L0});
    }
    std::stable_sort(changes.begin(), changes.end(),
                     [](const Change& a, const Change& b) { return a.t < b.t; });
    for (const Change& c : changes) vcd.change(c.id, c.v, c.t);
    vcd.timestamp(tracer.last_tck() * tracer.config().tck_period_ps);
  }

  std::cout << "Session: " << report.total_tcks << " TCKs ("
            << report.generation_tcks << " generation + "
            << report.observation_tcks << " observation), "
            << tracer.events().size() << " trace records ("
            << tracer.dropped() << " dropped).\n";
  if (first_sd_tck != 0) {
    std::cout << "First skew violation latched at TCK " << first_sd_tck
              << " (t = " << first_sd_tck * 10 << " ns) — find the \"SD\" "
              << "instant marker there in Perfetto.\n";
  } else {
    std::cout << "No skew violation latched — unexpected for this defect.\n";
  }
  std::cout << "\nWrote trace_demo.trace.json (Perfetto), trace_demo.jsonl,\n"
               "trace_demo.metrics.json, trace_demo.vcd (GTKWave).\n\nMetrics:\n";
  hub.registry().write_text(std::cout);
  return 0;
}
