// jsi_bench: the measurement driver behind jsibench/run.py.
//
//   jsi_bench --workload NAME --manifest FILE --work DIR --jsi PATH
//             --seconds S --trace 0|1
//
// Runs one workload over the scenario texts gen.py generated (listed in
// the manifest), checks every output, and prints one JSON record of raw
// samples, counts and build provenance as the last line of stdout.
// run.py turns that record into the benchmark's metrics. Exit status 0
// only when the workload ran to the end; correctness failures are
// reported in the record (run.py fails the command on them).
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <thread>

#include "common.hpp"

namespace {

jsib::Args parse_args(int argc, char** argv) {
  jsib::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--manifest") {
      a.manifest = v;
    } else if (k == "--work") {
      a.work_dir = v;
    } else if (k == "--jsi") {
      a.jsi_path = v;
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  if (a.workload.empty() || a.manifest.empty() || a.work_dir.empty()) {
    throw std::runtime_error(
        "usage: jsi_bench --workload NAME --manifest FILE --work DIR "
        "[--jsi PATH] [--seconds S] [--trace 0|1]");
  }
  return a;
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

std::string render(const jsib::Args& a, const jsib::Manifest& m,
                   jsib::RunRecord& rec) {
  jsib::JsonOut j;
  j.begin_object();
  j.key("workload").str(a.workload);
  j.key("seed").uint(m.seed);
  j.key("trace").boolean(a.trace);
  j.key("build").begin_object();
  j.key("cmake_build_type").str(JSIB_BUILD_TYPE);
  j.key("cxx_flags").str(JSIB_CXX_FLAGS);
  j.key("compiler").str(JSIB_COMPILER);
  j.key("sanitizer").boolean(sanitized());
  j.key("hw_threads").uint(std::thread::hardware_concurrency());
  j.end_object();
  j.key("attempted").uint(rec.attempted);
  j.key("failed").uint(rec.fail.count());
  j.key("fail_reasons").strs(rec.fail.reasons());
  j.key("samples").begin_object();
  for (const auto& [k, v] : rec.samples) j.key(k).nums(v);
  j.end_object();
  j.key("values").begin_object();
  for (const auto& [k, v] : rec.values) j.key(k).num(v);
  j.end_object();
  j.end_object();
  return j.text();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const jsib::Args a = parse_args(argc, argv);
    const jsib::Manifest m = jsib::load_manifest(a.manifest);
    jsib::RunRecord rec;
    if (a.trace) {
      jsib::run_trace(a, m, rec);
    } else if (!m.jobs.empty()) {
      jsib::run_serve(a, m, rec);
    } else {
      jsib::run_inproc(a, m, rec);
    }
    if (m.jobs.empty()) {
      rec.values["shards"] = static_cast<double>(m.shards);
    } else {
      rec.values["pool"] = static_cast<double>(m.pool);
      rec.values["clients"] = static_cast<double>(m.clients);
    }
    std::cout << render(a, m, rec) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "jsi_bench: " << e.what() << "\n";
    return 2;
  }
}
