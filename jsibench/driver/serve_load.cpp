// serve_jobs: the real `jsi serve` binary as a child process on a unix
// socket, driven by this process as a job generator. Three phases:
//
//   low    open loop at a fixed low rate   (latency of a lightly used daemon)
//   high   open loop at a fixed high rate  (below capacity; queueing shows)
//   closed a fixed number of outstanding jobs, more than the daemon pool
//          (capacity)
//
// An open-loop job is timed from its due time until its result frame has
// fully arrived, so a generator that falls behind charges the wait to
// the jobs it delayed (and its lateness is reported on its own). A job
// that is refused or fails counts as beyond any latency limit.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "scenario/parse.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

extern char** environ;

namespace jsib {

namespace sc = jsi::scenario;
namespace json = jsi::util::json;
using jsi::serve::Client;

namespace {

json::Value request(const char* verb) {
  json::Value v = json::Value::make_object();
  v.add("verb", json::Value::make_string(verb));
  return v;
}

/// Send one request and return its response, skipping any job-record
/// frames a subscription pushes onto the same connection.
json::Value rpc(Client& c, const json::Value& req, std::string* raw) {
  c.send(req);
  for (;;) {
    const std::optional<std::string> frame = c.read_frame();
    if (!frame) throw std::runtime_error("daemon closed the connection");
    std::optional<json::Value> v = jsi::serve::parse_message(*frame, nullptr);
    if (!v) throw std::runtime_error("unparseable frame from daemon");
    if (jsi::serve::find_member(*v, "schema") != nullptr) continue;
    if (raw != nullptr) *raw = *frame;
    return std::move(*v);
  }
}

bool ok(const json::Value& resp) {
  return jsi::serve::bool_or(resp, "ok", false);
}

std::string error_of(const json::Value& resp) {
  return jsi::serve::string_or(resp, "error", "error") + ": " +
         jsi::serve::string_or(resp, "message", "");
}

}  // namespace

std::optional<std::uint64_t> submit_job(Client& c, const std::string& text,
                                        std::string& err) {
  json::Value req = request("submit");
  req.add("scenario_text", json::Value::make_string(text));
  const json::Value resp = rpc(c, req, nullptr);
  if (!ok(resp)) {
    err = error_of(resp);
    return std::nullopt;
  }
  return jsi::serve::u64_or_nothing(resp, "job");
}

JobResult wait_and_fetch(Client& c, std::uint64_t job) {
  JobResult r;
  json::Value sub = request("subscribe");
  sub.add("job", json::Value::make_number(static_cast<double>(job)));
  const json::Value sresp = rpc(c, sub, nullptr);
  if (!ok(sresp)) {
    r.error = error_of(sresp);
    return r;
  }
  std::string state;
  while (state != "done" && state != "failed" && state != "cancelled") {
    const std::optional<std::string> frame = c.read_frame();
    if (!frame) throw std::runtime_error("daemon closed the connection");
    const std::optional<json::Value> rec =
        jsi::serve::parse_message(*frame, nullptr);
    if (rec && jsi::serve::u64_or_nothing(*rec, "job") == job &&
        jsi::serve::string_or(*rec, "schema", "") == "jsi.serve.job.v1") {
      state = jsi::serve::string_or(*rec, "state", "");
    }
  }
  if (state != "done") {
    r.error = "job " + state;
    return r;
  }
  json::Value res = request("result");
  res.add("job", json::Value::make_number(static_cast<double>(job)));
  const json::Value resp = rpc(c, res, &r.frame);
  if (!ok(resp)) {
    r.error = error_of(resp);
    return r;
  }
  r.ok = true;
  r.report = jsi::serve::string_or(resp, "report", "");
  r.metrics = jsi::serve::string_or(resp, "metrics", "");
  r.yield = jsi::serve::string_or(resp, "yield", "");
  r.events = jsi::serve::string_or(resp, "events", "");
  return r;
}

JobResult run_job(Client& c, const std::string& text) {
  std::string err;
  const std::optional<std::uint64_t> id = submit_job(c, text, err);
  if (!id) {
    JobResult r;
    r.error = err;
    return r;
  }
  return wait_and_fetch(c, *id);
}

namespace {

/// One `jsi serve` child. The destructor kills and reaps a child that
/// was not shut down, so no daemon outlives the benchmark.
class Daemon {
 public:
  Daemon(const std::string& jsi, const std::string& socket, std::size_t pool,
         const std::string& log)
      : socket_(socket) {
    const std::string pool_s = std::to_string(pool);
    std::vector<std::string> argv_s{jsi,      "serve", "--socket",
                                    socket,   "--pool", pool_s};
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = ::posix_spawn(&pid_, jsi.c_str(), &fa, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot spawn " + jsi);
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Poll until the socket accepts a connection (10 s limit).
  Client connect() {
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      try {
        return Client::connect_unix(socket_);
      } catch (const std::exception&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("jsi serve exited during start-up");
        }
        if (seconds_since(t0) > 10.0) {
          throw std::runtime_error("jsi serve did not accept within 10 s");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }

  /// The child's peak resident set so far (VmHWM), in KiB.
  std::uint64_t peak_rss_kb() const {
    std::ifstream is("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    std::uint64_t kb = 0;
    while (is >> key) {
      if (key == "VmHWM:" && (is >> kb)) return kb;
      is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    throw std::runtime_error("cannot read VmHWM of jsi serve");
  }

  /// Graceful drain through the shutdown verb; returns the child's peak
  /// RSS in KiB (wait4) and throws if it does not exit cleanly.
  std::uint64_t shutdown() {
    {
      Client c = connect();
      rpc(c, request("shutdown"), nullptr);
    }
    int status = 0;
    rusage ru{};
    if (::wait4(pid_, &status, 0, &ru) != pid_) {
      throw std::runtime_error("wait4 on jsi serve failed");
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("jsi serve exited uncleanly");
    }
    return static_cast<std::uint64_t>(ru.ru_maxrss);
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

constexpr double kFailedLatency = std::numeric_limits<double>::infinity();
// Daemons started (and drained) per run for the setup_s median; the last
// one serves the phases.
constexpr std::size_t kSetups = 11;

struct Shared {
  const Manifest* m = nullptr;
  const std::vector<std::string>* texts = nullptr;
  const std::vector<Reference>* refs = nullptr;
  RunRecord* rec = nullptr;
  std::atomic<std::size_t> next_job{0};  ///< position in m->order
  std::mutex mu;                         ///< guards the phase samples
};

/// Run job number `seq` of the generated order on `c`; returns the time
/// the result arrived, or nullopt when it was refused, failed or wrong.
std::optional<Clock::time_point> one_job(Shared& sh, Client& c,
                                         std::size_t seq,
                                         std::uint64_t& units) {
  const std::size_t idx = sh.m->order[seq % sh.m->order.size()];
  const JobResult r = run_job(c, (*sh.texts)[idx]);
  const Clock::time_point done = Clock::now();
  if (!r.ok) {
    sh.rec->fail.add(1, "serve job: " + r.error);
    return std::nullopt;
  }
  const Reference& ref = (*sh.refs)[idx];
  std::uint64_t bad = check_artifacts("serve job", r.report, r.metrics,
                                      r.yield, ref, sh.rec->fail);
  if (r.events != ref.events) {
    ++bad;
    sh.rec->fail.add(1, "serve job: events.jsonl differs from local run");
  }
  if (bad != 0) return std::nullopt;
  units = ref.units;
  return done;
}

/// A client thread's entry: a lost connection ends that client and is
/// recorded as a failed operation instead of escaping the thread.
template <class F>
auto guarded(Shared& sh, F& body) {
  return [&sh, &body] {
    try {
      body();
    } catch (const std::exception& e) {
      sh.rec->fail.add(1, std::string("serve client: ") + e.what());
    }
  };
}

void open_loop(Shared& sh, const std::string& socket, const std::string& name,
               double rate, double seconds) {
  const std::size_t n =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  const std::size_t base = sh.next_job.load();
  std::atomic<std::size_t> next{0};
  std::vector<double> lat, late;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto client_loop = [&] {
    Client c = Client::connect_unix(socket);
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(i / rate));
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      std::uint64_t units = 0;
      const auto done = one_job(sh, c, base + i, units);
      std::lock_guard<std::mutex> lk(sh.mu);
      late.push_back(ms_between(due, sent));
      lat.push_back(done ? ms_between(due, *done) : kFailedLatency);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < sh.m->clients; ++t) {
    threads.emplace_back(guarded(sh, client_loop));
  }
  for (std::thread& t : threads) t.join();
  sh.next_job += n;
  sh.rec->attempted += n;
  sh.rec->samples["job_ms." + name] = lat;
  sh.rec->samples["late_ms." + name] = late;
  sh.rec->values["rate." + name] = rate;
}

void closed_loop(Shared& sh, const std::string& socket, double seconds) {
  // Capacity is taken over whole blocks of the generated order, each of
  // which holds the same job mix, so it does not move with how many
  // sweeps happened to fall inside the time window.
  const std::size_t block = sh.m->block;
  const std::size_t base = (sh.next_job.load() + block - 1) / block * block;
  sh.next_job = base;
  struct Done {
    std::size_t rel = 0;  ///< position after `base`
    Clock::time_point at;
    std::uint64_t units = 0;
    bool ok = false;
  };
  std::vector<Done> done;  // guarded by sh.mu
  std::vector<double> lat;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  auto client_loop = [&] {
    Client c = Client::connect_unix(socket);
    while (Clock::now() < end) {
      const std::size_t seq = sh.next_job.fetch_add(1);
      const Clock::time_point s = Clock::now();
      std::uint64_t units = 0;
      const auto at = one_job(sh, c, seq, units);
      std::lock_guard<std::mutex> lk(sh.mu);
      done.push_back({seq - base, at.value_or(Clock::now()), units,
                      at.has_value()});
      lat.push_back(at ? ms_between(s, *at) : kFailedLatency);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < sh.m->clients; ++t) {
    threads.emplace_back(guarded(sh, client_loop));
  }
  for (std::thread& t : threads) t.join();

  // Every claimed job has finished, so the first `window` jobs are
  // complete blocks (all of them when not even one block fit).
  const std::size_t window =
      done.size() >= block ? done.size() / block * block : done.size();
  std::size_t jobs = 0;
  std::uint64_t units = 0;
  Clock::time_point last = t0;
  for (const Done& d : done) {
    if (d.rel >= window) continue;
    last = std::max(last, d.at);
    if (!d.ok) continue;
    ++jobs;
    units += d.units;
  }
  const double elapsed = ms_between(t0, last) / 1e3;
  sh.rec->attempted += done.size();
  sh.rec->samples["job_ms.closed"] = lat;
  sh.rec->values["closed.jobs"] = static_cast<double>(jobs);
  sh.rec->values["closed.units"] = static_cast<double>(units);
  sh.rec->values["closed.seconds"] = elapsed;
  sh.rec->samples["units_per_s"].push_back(elapsed > 0 ? units / elapsed
                                                       : 0.0);
  sh.rec->samples["jobs_per_s"].push_back(elapsed > 0 ? jobs / elapsed : 0.0);
}

}  // namespace

void run_serve(const Args& a, const Manifest& m, RunRecord& rec) {
  std::vector<std::string> texts;
  std::vector<Reference> refs;
  for (const std::string& path : m.jobs) {
    texts.push_back(read_file(path));
    refs.push_back(make_reference(sc::parse_scenario(texts.back()), rec.fail));
  }

  const std::string socket = "jsi.sock";  // relative: cwd is the work dir
  const std::string log = "jsi-serve.log";
  std::unique_ptr<Daemon> d;
  for (std::size_t i = 0; i < kSetups; ++i) {
    if (d) d->shutdown();
    const Clock::time_point t0 = Clock::now();
    d = std::make_unique<Daemon>(a.jsi_path, socket, m.pool, log);
    d->connect();
    rec.samples["setup_s"].push_back(seconds_since(t0));
  }

  Shared sh;
  sh.m = &m;
  sh.texts = &texts;
  sh.refs = &refs;
  sh.rec = &rec;
  // The run budget splits evenly over the three phases.
  const double phase = a.seconds / 3.0;
  open_loop(sh, socket, "low", m.low_rate, phase);
  open_loop(sh, socket, "high", m.high_rate, phase);
  // The daemon keeps every finished job, so its footprint grows with the
  // job count: take the peak after the fixed-size open-loop phases, not
  // after the closed loop, whose job count follows the machine's speed.
  rec.values["peak_rss_kb"] = static_cast<double>(d->peak_rss_kb());
  closed_loop(sh, socket, phase);
  rec.samples["campaign_ms"] = rec.samples["job_ms.low"];

  rec.values["peak_rss_kb.end"] = static_cast<double>(d->shutdown());
}

}  // namespace jsib
