#ifndef JSI_OBS_REGISTRY_HPP
#define JSI_OBS_REGISTRY_HPP

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace jsi::obs {

/// Monotone event count.
class Counter {
 public:
  void inc(std::uint64_t by = 1) { v_ += by; }
  std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

/// Last-written scalar (hit rates, configured sizes).
class Gauge {
 public:
  void set(double v) { v_ = v; }
  double value() const { return v_; }
  void reset() { v_ = 0.0; }

 private:
  double v_ = 0.0;
};

/// Cumulative histogram over fixed upper-bound buckets (Prometheus
/// style): `counts()[i]` holds observations <= `bounds()[i]`, with one
/// implicit overflow bucket at the end.
class Histogram {
 public:
  /// Default bounds suit per-TapOp TCK latencies (1 TCK .. full scans).
  static std::vector<double> default_bounds();

  Histogram() : Histogram(default_bounds()) {}
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  /// Fold `other`'s observations into this histogram. The bucket layouts
  /// must match (throws std::invalid_argument otherwise): merging is only
  /// meaningful between histograms of the same metric.
  void merge(const Histogram& other);

  /// Overwrite the observation state wholesale — the campaign checkpoint
  /// loader's hook, which must reproduce a previously serialized
  /// histogram bit-for-bit (including the exact `sum` double, which no
  /// sequence of observe() calls could be trusted to rebuild). `counts`
  /// must have bounds().size() + 1 entries (throws std::invalid_argument)
  /// and `count` should equal their total; the bounds themselves are
  /// fixed at construction.
  void restore(std::vector<std::uint64_t> counts, std::uint64_t count,
               double sum);

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

  /// Arithmetic mean of all observations (0 when empty).
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Approximate q-quantile (q in [0,1]) reconstructed from the bucket
  /// layout: linear interpolation inside the bucket holding the target
  /// rank, with the first bucket anchored at 0 and observations in the
  /// overflow bucket clamped to the highest bound. Exact enough for the
  /// p50/p95 summaries the profile report and metrics.json print; 0 when
  /// the histogram is empty.
  double quantile(double q) const;

  void reset();

 private:
  std::vector<double> bounds_;          // sorted ascending
  std::vector<std::uint64_t> counts_;   // bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Named metric store. Lookup creates on first use; references stay
/// stable for the registry's lifetime (std::map nodes), so hot-path
/// consumers resolve a metric once and increment through the pointer.
/// Iteration order is the name order, which makes every text/JSON dump
/// deterministic.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// Value of `name` if the counter exists, 0 otherwise (test helper).
  std::uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Zero every metric, keeping the registered names.
  void reset();

  /// Additive fold of `other` into this registry: counters and histogram
  /// buckets sum; gauges sum as well, so a merged gauge is meaningful for
  /// additive quantities only (per-shard campaign registries hold no
  /// others). Names absent here are created. Deterministic: merging the
  /// same sequence of registries in the same order always produces the
  /// same result, and because the fold is commutative for counters and
  /// histograms, any partition of a unit sequence into shards merges to
  /// identical totals. Throws std::invalid_argument on histogram
  /// bucket-layout mismatch.
  void merge(const Registry& other);

  /// `name value` per line, counters then gauges then histogram summaries.
  void write_text(std::ostream& os) const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  void write_json(std::ostream& os) const;
  std::string to_json() const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace jsi::obs

#endif  // JSI_OBS_REGISTRY_HPP
