#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include "obs/hub.hpp"

namespace jsi::obs {
namespace {

Event mark(std::uint64_t tck, const char* name = "m") {
  Event e;
  e.kind = EventKind::Mark;
  e.tck = tck;
  e.name = name;
  return e;
}

TEST(Tracer, KeepsArrivalOrderWhileFilling) {
  TracerConfig cfg;
  cfg.capacity = 8;
  Tracer t(cfg);
  for (std::uint64_t i = 1; i <= 3; ++i) t.on_event(mark(i));
  const auto ev = t.events();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].tck, 1u);
  EXPECT_EQ(ev[2].tck, 3u);
  EXPECT_EQ(t.recorded(), 3u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, RingDropsOldestWhenFull) {
  TracerConfig cfg;
  cfg.capacity = 4;
  Tracer t(cfg);
  for (std::uint64_t i = 1; i <= 6; ++i) t.on_event(mark(i));
  const auto ev = t.events();
  ASSERT_EQ(ev.size(), 4u);
  // Events 1 and 2 were overwritten; the rest survive oldest-first.
  EXPECT_EQ(ev[0].tck, 3u);
  EXPECT_EQ(ev[1].tck, 4u);
  EXPECT_EQ(ev[2].tck, 5u);
  EXPECT_EQ(ev[3].tck, 6u);
  EXPECT_EQ(t.recorded(), 6u);
  EXPECT_EQ(t.dropped(), 2u);
}

TEST(Tracer, ExactlyFullRingStillReturnsEverything) {
  TracerConfig cfg;
  cfg.capacity = 4;
  Tracer t(cfg);
  for (std::uint64_t i = 1; i <= 4; ++i) t.on_event(mark(i));
  const auto ev = t.events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].tck, 1u);
  EXPECT_EQ(ev[3].tck, 4u);
}

TEST(Tracer, StampsUnstampedEventsFromLastSeenTck) {
  Tracer t;
  t.on_event(mark(42));
  Event e;
  e.kind = EventKind::DetectorFired;
  e.name = "ND";  // no tck: mid-scan producer
  t.on_event(e);
  const auto ev = t.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[1].tck, 42u);
  EXPECT_EQ(ev[1].time_ps, 42u * t.config().tck_period_ps);
}

TEST(Tracer, FiltersEdgesAndCacheLookupsPerConfig) {
  TracerConfig cfg;
  cfg.tap_edges = false;  // cache_lookups already defaults to false
  Tracer t(cfg);
  Event edge;
  edge.kind = EventKind::StateEdge;
  edge.tck = 1;
  Event cache;
  cache.kind = EventKind::CacheLookup;
  t.on_event(edge);
  t.on_event(cache);
  t.on_event(mark(2));
  const auto ev = t.events();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].kind, EventKind::Mark);
  // Filtered events still advance the TCK stamp clock.
  EXPECT_EQ(t.last_tck(), 2u);
}

TEST(Tracer, ClearDropsRecordsButKeepsMeters) {
  Tracer t;
  t.on_event(mark(1));
  t.clear();
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.recorded(), 1u);
}

TEST(Hub, StampsAndFansOutToExtraSinks) {
  class Capture final : public Sink {
   public:
    std::vector<Event> seen;
    void on_event(const Event& e) override { seen.push_back(e); }
  };
  Hub hub;
  Capture extra;
  Tracer tracer;
  hub.add_sink(&extra);
  hub.add_sink(&tracer);

  hub.on_event(mark(10));
  Event unstamped;
  unstamped.kind = EventKind::BusTransition;
  unstamped.name = "bus";
  hub.on_event(unstamped);

  ASSERT_EQ(extra.seen.size(), 2u);
  EXPECT_EQ(extra.seen[1].tck, 10u);
  EXPECT_EQ(extra.seen[1].time_ps, 10u * TracerConfig{}.tck_period_ps);
  EXPECT_EQ(hub.registry().counter_value("bus.transitions"), 1u);
  ASSERT_EQ(tracer.events().size(), 2u);
}

}  // namespace
}  // namespace jsi::obs
