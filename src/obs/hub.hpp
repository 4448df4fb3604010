#ifndef JSI_OBS_HUB_HPP
#define JSI_OBS_HUB_HPP

#include <vector>

#include "obs/events.hpp"
#include "obs/metrics_sink.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

namespace jsi::obs {

/// The one-stop observer a session attaches: owns a metrics Registry,
/// stamps incoming events with the last-seen TCK (so records from layers
/// that have no clock — detectors, the bus cache — inherit the edge that
/// caused them) and `time_ps`, and fans the stamped stream out to the
/// metrics fold and any extra sinks. A trace is one such sink: attach an
/// obs::Tracer with add_sink to record the stream.
class Hub final : public Sink {
 public:
  Hub() : Hub(TracerConfig{}) {}
  /// Only `cfg.tck_period_ps` is used: the timebase `time_ps` is stamped
  /// on (the same field an attached Tracer is built from).
  explicit Hub(TracerConfig cfg)
      : metrics_(registry_), period_ps_(cfg.tck_period_ps) {}

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  MetricsSink& metrics() { return metrics_; }

  /// Strict TCK-accounting cross-check (throws on mismatch) — see
  /// MetricsSink.
  void set_strict(bool on) { metrics_.set_strict(on); }

  /// Additional fan-out target (not owned). Receives stamped events.
  void add_sink(Sink* s) { extra_.push_back(s); }

  /// Return the hub to its just-constructed observation state: metrics
  /// zeroed (names kept), TCK stamping restarted from zero, any in-flight
  /// plan accounting dropped. Extra sinks stay attached and are not reset
  /// (they aggregate across resets; an attached Tracer is cleared by its
  /// owner). Campaign workers call this between work units so every unit
  /// is observed from an identical starting state regardless of which
  /// worker runs it.
  void reset() {
    registry_.reset();
    metrics_.reset_plan_state();
    last_tck_ = 0;
  }

  void on_event(const Event& e) override {
    Event stamped = e;
    if (stamped.tck == Event::kNoStamp) {
      stamped.tck = last_tck_;
    } else {
      last_tck_ = stamped.tck;
    }
    if (stamped.time_ps == Event::kNoStamp) {
      stamped.time_ps = stamped.tck * period_ps_;
    }
    metrics_.on_event(stamped);
    for (Sink* s : extra_) s->on_event(stamped);
  }

 private:
  Registry registry_;
  MetricsSink metrics_;
  std::vector<Sink*> extra_;
  std::uint64_t period_ps_;
  std::uint64_t last_tck_ = 0;
};

}  // namespace jsi::obs

#endif  // JSI_OBS_HUB_HPP
