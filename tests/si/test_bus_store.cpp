// Tests for the CoupledBus waveform store: stored waveforms against the
// raw solver, hit/miss metering, the MA prefill, the defect-generation
// invalidation contract, bounded-FIFO slot reuse, clone warm-carry, the
// disabled (scalar reference) path and the per-slot ND/SD verdict
// records.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mafm/fault.hpp"
#include "obs/events.hpp"
#include "si/bus.hpp"
#include "si/kernel.hpp"
#include "util/prng.hpp"

namespace jsi::si {
namespace {

BusParams params_n(std::size_t n, std::size_t samples = 256) {
  BusParams p;
  p.n_wires = n;
  p.samples = samples;
  return p;
}

util::BitVec random_vec(util::Prng& rng, std::size_t n) {
  util::BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.next_bool());
  return v;
}

std::vector<mafm::VectorPair> ma_pairs(std::size_t n) {
  std::vector<mafm::VectorPair> pairs;
  for (const mafm::MaFault f : mafm::kAllFaults) {
    for (std::size_t victim = 0; victim < n; ++victim) {
      pairs.push_back(mafm::vectors_for(f, n, victim));
    }
  }
  return pairs;
}

/// One wire rising with every other wire quiet: each window holds at
/// least two quiet wires, which no MA pattern has (they keep at most the
/// victim quiet), so every wire misses on a fresh store.
mafm::VectorPair lone_rise(std::size_t n, std::size_t wire) {
  util::BitVec next(n);
  next.set(wire, true);
  return {util::BitVec(n), next};
}

void expect_same_bytes(WaveformView got, WaveformView want) {
  ASSERT_EQ(got.samples(), want.samples());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        want.samples() * sizeof(double)),
            0);
}

/// The scalar reference twin of `p`: store off, every wire solved on the
/// kernel's scalar path.
CoupledBus scalar_twin(const BusParams& p) {
  CoupledBus bus(p);
  bus.set_cache_enabled(false);
  return bus;
}

TEST(BusStore, EnabledByDefaultAndEmpty) {
  CoupledBus bus(params_n(8));
  EXPECT_TRUE(bus.cache_enabled());
  EXPECT_EQ(bus.cache_hits(), 0u);
  EXPECT_EQ(bus.cache_misses(), 0u);
  EXPECT_EQ(bus.cache_entries(), 0u);
  EXPECT_DOUBLE_EQ(bus.cache_hit_rate(), 0.0);
}

TEST(BusStore, RepeatedTransitionHits) {
  CoupledBus bus(params_n(8));
  const mafm::VectorPair vp = lone_rise(8, 3);

  bus.transition(vp.v1, vp.v2);
  EXPECT_EQ(bus.cache_hits(), 0u);
  EXPECT_EQ(bus.cache_misses(), 8u);

  bus.transition(vp.v1, vp.v2);
  EXPECT_EQ(bus.cache_hits(), 8u);
  EXPECT_EQ(bus.cache_misses(), 8u);
  EXPECT_DOUBLE_EQ(bus.cache_hit_rate(), 0.5);
}

TEST(BusStore, StoredWaveformsMatchRawSolver) {
  // Random vector pairs through both APIs, with a defect: every stored
  // waveform is sample-identical to the uncached solver, including after
  // hits on shared neighbourhoods.
  const BusParams p = params_n(10);
  CoupledBus stored(p);
  CoupledBus raw = scalar_twin(p);
  stored.inject_crosstalk_defect(4, 6.0);
  raw.inject_crosstalk_defect(4, 6.0);

  util::Prng rng(0xC0FFEEu);
  for (int iter = 0; iter < 40; ++iter) {
    const util::BitVec prev = random_vec(rng, p.n_wires);
    const util::BitVec next = random_vec(rng, p.n_wires);
    const auto got = stored.transition(prev, next);
    const auto want = raw.transition(prev, next);
    ASSERT_EQ(got.size(), want.size());
    const TransitionBatch batch = stored.transition_batch(prev, next);
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(i);
      expect_same_bytes(got[i], want[i]);
      expect_same_bytes(batch.wire(i), want[i]);
    }
  }
  EXPECT_GT(stored.cache_hits(), 0u);
  EXPECT_EQ(raw.cache_hits(), 0u);
  EXPECT_EQ(raw.cache_misses(), 0u);
}

TEST(BusStore, PrefillIsIdempotentPerGenerationAndUnmetered) {
  CoupledBus bus(params_n(8));
  bus.precompile_tables();
  // The 6*8 MA pairs share most windows: 220 distinct waveforms.
  EXPECT_EQ(bus.cache_entries(), 220u);
  bus.precompile_tables();  // same generation: no refill, no growth
  EXPECT_EQ(bus.cache_entries(), 220u);
  EXPECT_EQ(bus.cache_hits(), 0u);
  EXPECT_EQ(bus.cache_misses(), 0u);

  bus.inject_crosstalk_defect(3, 6.0);
  bus.precompile_tables();  // new generation: refilled to the same set
  EXPECT_EQ(bus.cache_entries(), 220u);
  EXPECT_EQ(bus.cache_misses(), 0u);
}

TEST(BusStore, MaPairsAlwaysHit) {
  CoupledBus bus(params_n(8));
  bus.precompile_tables();
  const auto pairs = ma_pairs(8);
  for (const mafm::VectorPair& vp : pairs) {
    bus.transition_batch(vp.v1, vp.v2);
  }
  EXPECT_EQ(bus.cache_hits(), pairs.size() * 8);
  EXPECT_EQ(bus.cache_misses(), 0u);
  EXPECT_DOUBLE_EQ(bus.cache_hit_rate(), 1.0);
}

TEST(BusStore, FirstLookupPrefills) {
  // Without precompile_tables() the first lookup of a generation fills
  // the MA set, so an MA pair hits even on a cold bus.
  CoupledBus bus(params_n(6));
  const mafm::VectorPair vp = mafm::vectors_for(mafm::MaFault::Pg, 6, 2);
  bus.transition_batch(vp.v1, vp.v2);
  EXPECT_GT(bus.cache_entries(), 0u);
  EXPECT_EQ(bus.cache_hits(), 6u);
  EXPECT_EQ(bus.cache_misses(), 0u);
}

TEST(BusStore, NonMaTransitionInsideMaWindowsHasNoMisses) {
  // Two Pg victims eight wires apart: not one of the 6*n MA pairs, but
  // every wire's 5-bit window sees at most one quiet victim among rising
  // aggressors — a window the prefill already holds. The store serves it
  // without a single solve.
  const std::size_t n = 16;
  CoupledBus bus(params_n(n));
  bus.precompile_tables();
  util::BitVec next(n);
  for (std::size_t i = 0; i < n; ++i) next.set(i, i != 2 && i != 10);
  const util::BitVec prev(n);
  for (const mafm::VectorPair& vp : ma_pairs(n)) {
    ASSERT_FALSE(vp.v1 == prev && vp.v2 == next) << "must be a non-MA pair";
  }

  const TransitionBatch batch = bus.transition_batch(prev, next);
  EXPECT_EQ(bus.cache_misses(), 0u);
  EXPECT_EQ(bus.cache_hits(), n);
  const CoupledBus ref = scalar_twin(params_n(n));
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE(i);
    expect_same_bytes(batch.wire(i), ref.wire_response(i, prev, next));
  }
}

TEST(BusStore, NonMaWindowsAreSolvedOnceThenHit) {
  // Two adjacent wires rise: some windows are MA windows, the rest miss
  // once and are stored for the repeat.
  CoupledBus bus(params_n(8));
  bus.precompile_tables();
  util::BitVec next(8);
  next.set(0, true);
  next.set(1, true);
  const util::BitVec prev(8);

  bus.transition_batch(prev, next);
  const std::uint64_t misses = bus.cache_misses();
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(bus.cache_hits() + misses, 8u) << "one lookup per wire";

  bus.transition_batch(prev, next);
  EXPECT_EQ(bus.cache_misses(), misses);
  EXPECT_EQ(bus.cache_hits() + misses, 16u);
}

TEST(BusStore, InjectDefectInvalidates) {
  const BusParams p = params_n(6);
  CoupledBus bus(p);
  const mafm::VectorPair vp = lone_rise(6, 2);

  const auto clean = bus.transition(vp.v1, vp.v2);
  bus.transition(vp.v1, vp.v2);  // warm: all hits
  EXPECT_EQ(bus.cache_hits(), 6u);

  const std::uint64_t gen = bus.defect_generation();
  bus.inject_crosstalk_defect(2, 6.0);
  EXPECT_GT(bus.defect_generation(), gen);

  // Post-defect lookups are misses (stale entries dropped), and the
  // waveforms reflect the new electrical state, not the stored one.
  const auto defective = bus.transition(vp.v1, vp.v2);
  EXPECT_EQ(bus.cache_hits(), 6u);
  EXPECT_EQ(bus.cache_misses(), 12u);
  bool any_changed = false;
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t s = 0; s < clean[i].samples(); ++s) {
      if (clean[i][s] != defective[i][s]) any_changed = true;
    }
  }
  EXPECT_TRUE(any_changed) << "a severity-6 defect must alter waveforms";

  CoupledBus ref = scalar_twin(p);
  ref.inject_crosstalk_defect(2, 6.0);
  for (std::size_t i = 0; i < 6; ++i) {
    SCOPED_TRACE(i);
    expect_same_bytes(defective[i], ref.wire_response(i, vp.v1, vp.v2));
  }
}

TEST(BusStore, DefectRefillsTheMaSet) {
  // The stale MA set is flushed on the first lookup after a bump and
  // refilled for the new generation: the probe still hits, and serves
  // the defective bus's bytes.
  CoupledBus bus(params_n(8));
  bus.precompile_tables();
  const mafm::VectorPair vp = mafm::vectors_for(mafm::MaFault::Pg, 8, 3);
  const Waveform clean_victim(bus.transition_batch(vp.v1, vp.v2).wire(3));

  bus.inject_crosstalk_defect(3, 6.0);
  const TransitionBatch defective = bus.transition_batch(vp.v1, vp.v2);
  EXPECT_EQ(bus.cache_hits(), 16u);
  EXPECT_EQ(bus.cache_misses(), 0u);

  CoupledBus ref = scalar_twin(params_n(8));
  ref.inject_crosstalk_defect(3, 6.0);
  const Waveform want = ref.wire_response(3, vp.v1, vp.v2);
  expect_same_bytes(defective.wire(3), want);
  bool changed = false;
  for (std::size_t s = 0; s < want.samples(); ++s) {
    if (clean_victim[s] != want[s]) changed = true;
  }
  EXPECT_TRUE(changed) << "a severity-6 defect must alter the waveform";
}

TEST(BusStore, ClearDefectsInvalidates) {
  CoupledBus bus(params_n(6));
  const mafm::VectorPair vp = lone_rise(6, 2);

  const auto clean = bus.transition(vp.v1, vp.v2);
  bus.inject_crosstalk_defect(2, 6.0);
  bus.transition(vp.v1, vp.v2);

  const std::uint64_t gen = bus.defect_generation();
  bus.clear_defects();
  EXPECT_GT(bus.defect_generation(), gen);

  const auto restored = bus.transition(vp.v1, vp.v2);
  for (std::size_t i = 0; i < 6; ++i) {
    SCOPED_TRACE(i);
    expect_same_bytes(restored[i], clean[i]);
  }
}

TEST(BusStore, EveryMutatorBumpsGeneration) {
  CoupledBus bus(params_n(8));
  std::uint64_t gen = bus.defect_generation();
  bus.scale_coupling(0, 2.0);
  EXPECT_GT(bus.defect_generation(), gen);
  gen = bus.defect_generation();
  bus.add_series_resistance(1, 100.0);
  EXPECT_GT(bus.defect_generation(), gen);
  gen = bus.defect_generation();
  bus.inject_crosstalk_defect(3, 5.0);
  EXPECT_GT(bus.defect_generation(), gen);
  gen = bus.defect_generation();
  bus.clear_defects();
  EXPECT_GT(bus.defect_generation(), gen);
}

TEST(BusStore, DisabledStoreMetersNothingAndMatchesScalarBytes) {
  CoupledBus bus(params_n(8));
  const mafm::VectorPair ma = mafm::vectors_for(mafm::MaFault::Ng, 8, 4);
  const mafm::VectorPair other = lone_rise(8, 1);
  bus.transition_batch(ma.v1, ma.v2);
  bus.transition(other.v1, other.v2);
  EXPECT_GT(bus.cache_entries(), 0u);
  const std::uint64_t hits = bus.cache_hits();
  const std::uint64_t misses = bus.cache_misses();
  EXPECT_GT(hits, 0u);

  bus.set_cache_enabled(false);
  EXPECT_FALSE(bus.cache_enabled());
  EXPECT_EQ(bus.cache_entries(), 0u);
  EXPECT_EQ(bus.cache_hits(), hits) << "counters meter the workload, not "
                                       "the store contents";

  const CoupledBus ref = scalar_twin(params_n(8));
  for (const mafm::VectorPair& vp : {ma, other}) {
    const TransitionBatch b = bus.transition_batch(vp.v1, vp.v2);
    const auto owned = bus.transition(vp.v1, vp.v2);
    for (std::size_t i = 0; i < 8; ++i) {
      SCOPED_TRACE(i);
      const Waveform want = ref.wire_response(i, vp.v1, vp.v2);
      expect_same_bytes(b.wire(i), want);
      expect_same_bytes(owned[i], want);
    }
  }
  EXPECT_EQ(bus.cache_hits(), hits) << "disabled store must not meter";
  EXPECT_EQ(bus.cache_misses(), misses);
  EXPECT_EQ(bus.cache_entries(), 0u);

  // Re-enabling refills lazily and serves MA pairs from the prefill.
  bus.set_cache_enabled(true);
  bus.transition_batch(ma.v1, ma.v2);
  EXPECT_EQ(bus.cache_hits(), hits + 8);
  EXPECT_EQ(bus.cache_misses(), misses);
  EXPECT_GT(bus.cache_entries(), 0u);
}

TEST(BusStore, ClearCacheKeepsCounters) {
  CoupledBus bus(params_n(4));
  const mafm::VectorPair vp = lone_rise(4, 0);

  bus.transition(vp.v1, vp.v2);
  bus.transition(vp.v1, vp.v2);
  const auto hits = bus.cache_hits();
  const auto misses = bus.cache_misses();
  EXPECT_GT(hits, 0u);

  bus.clear_cache();
  EXPECT_EQ(bus.cache_entries(), 0u);
  EXPECT_EQ(bus.cache_hits(), hits);
  EXPECT_EQ(bus.cache_misses(), misses);

  bus.transition(vp.v1, vp.v2);  // refill: misses again, hits unchanged
  EXPECT_EQ(bus.cache_hits(), hits);
  EXPECT_GT(bus.cache_misses(), misses);
}

TEST(BusStore, BoundedFifoEvictionKeepsRecentEntries) {
  // A working set one entry larger than the cap must degrade by exactly
  // one entry, not to nothing. The bus is wider than kMaxPrefillWires, so
  // the FIFO slots are the whole store.
  BusParams p = params_n(CoupledBus::kMaxCacheEntries + 1, 8);
  CoupledBus bus(p);
  util::BitVec prev(p.n_wires);
  util::BitVec next(p.n_wires);
  for (std::size_t i = 0; i < p.n_wires; ++i) next.set(i, true);

  // One transition touches every wire: cap+1 distinct keys, one eviction.
  bus.transition(prev, next);
  EXPECT_EQ(bus.cache_entries(), CoupledBus::kMaxCacheEntries);
  EXPECT_EQ(bus.cache_misses(), p.n_wires);
  EXPECT_EQ(bus.cache_hits(), 0u);

  // Only the oldest entry (wire 0) was evicted; every other wire hits.
  for (std::size_t i = 1; i < p.n_wires; ++i) {
    bus.wire_response(i, prev, next);
  }
  EXPECT_EQ(bus.cache_hits(), p.n_wires - 1);
  EXPECT_EQ(bus.cache_misses(), p.n_wires);

  // The evicted entry misses once and re-enters, evicting the next
  // oldest; the store stays exactly at the cap.
  bus.wire_response(0, prev, next);
  EXPECT_EQ(bus.cache_misses(), p.n_wires + 1);
  EXPECT_EQ(bus.cache_entries(), CoupledBus::kMaxCacheEntries);
}

TEST(BusStore, FullStoreBatchNeverRecyclesAHeldSlot) {
  // Fill the FIFO so that wire 0's window of `t` is the oldest slot, then
  // evaluate `t` as one batch: wire 0 hits that slot, and wire 1's miss
  // is next in line to recycle it. Every wire must still carry the
  // scalar reference bytes.
  const std::size_t n = 8;
  const BusParams p = params_n(n, 16);
  CoupledBus bus(p);
  bus.precompile_tables();
  const std::size_t prefill = bus.cache_entries();
  const std::size_t full = prefill + CoupledBus::kMaxCacheEntries;
  const mafm::VectorPair t = lone_rise(n, 0);

  bus.wire_response(0, t.v1, t.v2);
  ASSERT_EQ(bus.cache_misses(), 1u) << "wire 0's window must be a FIFO slot";

  std::set<std::uint64_t> reserved;  // t's windows stay out of the fill
  for (std::size_t i = 0; i < n; ++i) {
    reserved.insert(neighborhood_key(n, i, t.v1, t.v2));
  }
  util::Prng rng(0x5107Eu);
  while (bus.cache_entries() < full) {
    const util::BitVec prev = random_vec(rng, n);
    const util::BitVec next = random_vec(rng, n);
    const std::size_t w = 1 + rng.next_below(n - 1);
    if (reserved.count(neighborhood_key(n, w, prev, next)) != 0) continue;
    bus.wire_response(w, prev, next);
  }
  ASSERT_EQ(bus.cache_entries(), full);

  const std::uint64_t hits = bus.cache_hits();
  const std::uint64_t misses = bus.cache_misses();
  const TransitionBatch batch = bus.transition_batch(t.v1, t.v2);
  EXPECT_EQ(bus.cache_hits(), hits + 1) << "wire 0 hits the oldest slot";
  EXPECT_EQ(bus.cache_misses(), misses + n - 1);
  EXPECT_EQ(bus.cache_entries(), full);

  const CoupledBus ref = scalar_twin(p);
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE(i);
    expect_same_bytes(batch.wire(i), ref.wire_response(i, t.v1, t.v2));
  }
}

TEST(BusStore, CloneCarriesStoreAndCounters) {
  CoupledBus bus(params_n(8, 64));
  bus.inject_crosstalk_defect(2, 5.0);
  bus.precompile_tables();
  const mafm::VectorPair ma = mafm::vectors_for(mafm::MaFault::Rs, 8, 2);
  const mafm::VectorPair other = lone_rise(8, 2);
  const Waveform want_ma(bus.transition_batch(ma.v1, ma.v2).wire(2));
  const auto want = bus.transition(other.v1, other.v2);  // 8 misses
  bus.transition(other.v1, other.v2);                    // 8 hits

  const CoupledBus copy = bus.clone();
  EXPECT_EQ(copy.cache_entries(), bus.cache_entries());
  EXPECT_EQ(copy.cache_hits(), bus.cache_hits());
  EXPECT_EQ(copy.cache_misses(), bus.cache_misses());
  EXPECT_EQ(copy.defect_generation(), bus.defect_generation());

  // The carried store is live and independent: a clone of a warm bus
  // starts warm, serves the same bits, and moves only its own counters.
  CoupledBus warm = bus.clone();
  const std::uint64_t src_hits = bus.cache_hits();
  const auto got = warm.transition(other.v1, other.v2);
  const TransitionBatch got_ma = warm.transition_batch(ma.v1, ma.v2);
  EXPECT_EQ(warm.cache_hits(), src_hits + 16);
  EXPECT_EQ(warm.cache_misses(), bus.cache_misses());
  EXPECT_EQ(bus.cache_hits(), src_hits);
  for (std::size_t i = 0; i < 8; ++i) {
    SCOPED_TRACE(i);
    expect_same_bytes(got[i], want[i]);
  }
  expect_same_bytes(got_ma.wire(2), want_ma);

  // Clones are independent: flushing one leaves the other warm.
  warm.clear_cache();
  EXPECT_EQ(warm.cache_entries(), 0u);
  EXPECT_GT(bus.cache_entries(), 0u);
}

TEST(BusStore, CloneDoesNotInheritSink) {
  struct CountingSink final : obs::Sink {
    int n = 0;
    void on_event(const obs::Event&) override { ++n; }
  };
  CoupledBus bus(params_n(4, 16));
  CountingSink sink;
  bus.set_sink(&sink);

  CoupledBus copy = bus.clone();
  const mafm::VectorPair vp = lone_rise(4, 1);
  copy.transition(vp.v1, vp.v2);
  EXPECT_EQ(sink.n, 0) << "a clone on another thread must not emit into "
                          "the source's sink";
  bus.transition(vp.v1, vp.v2);
  EXPECT_GT(sink.n, 0) << "the source keeps its sink";
}

TEST(BusStore, WideBusSkipsThePrefill) {
  BusParams p = params_n(CoupledBus::kMaxPrefillWires + 1, 32);
  CoupledBus bus(p);
  bus.precompile_tables();
  EXPECT_EQ(bus.cache_entries(), 0u);

  const mafm::VectorPair vp =
      mafm::vectors_for(mafm::MaFault::Pg, p.n_wires, 1);
  bus.transition_batch(vp.v1, vp.v2);
  EXPECT_EQ(bus.cache_hits(), 0u);
  EXPECT_EQ(bus.cache_misses(), p.n_wires);
}

TEST(BusStore, EmitsOneCacheEventPerWire) {
  struct RecordingSink final : obs::Sink {
    std::vector<obs::Event> lookups;
    void on_event(const obs::Event& e) override {
      if (e.kind == obs::EventKind::CacheLookup) lookups.push_back(e);
    }
  };
  CoupledBus bus(params_n(8));
  bus.precompile_tables();
  RecordingSink sink;
  bus.set_sink(&sink);

  const mafm::VectorPair ma = mafm::vectors_for(mafm::MaFault::Fs, 8, 5);
  bus.transition_batch(ma.v1, ma.v2);
  ASSERT_EQ(sink.lookups.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(std::string(sink.lookups[i].name), "si.cache");
    EXPECT_EQ(sink.lookups[i].a, 1) << "an MA window hits";
    EXPECT_EQ(sink.lookups[i].b, static_cast<std::int64_t>(i));
  }

  sink.lookups.clear();
  const mafm::VectorPair other = lone_rise(8, 5);
  bus.transition_batch(other.v1, other.v2);
  ASSERT_EQ(sink.lookups.size(), 8u);
  for (const obs::Event& e : sink.lookups) EXPECT_EQ(e.a, 0);

  sink.lookups.clear();
  bus.set_cache_enabled(false);
  bus.transition_batch(other.v1, other.v2);
  EXPECT_TRUE(sink.lookups.empty()) << "a disabled store never emits";
}

TEST(BusStore, SettledLogicUnaffected) {
  // End-to-end sanity: detector-facing settled values are identical with
  // and without the store across a victim sweep.
  const BusParams p = params_n(8);
  CoupledBus stored(p);
  CoupledBus raw = scalar_twin(p);
  stored.add_series_resistance(3, 900.0);
  raw.add_series_resistance(3, 900.0);

  for (std::size_t victim = 0; victim < p.n_wires; ++victim) {
    util::BitVec prev(p.n_wires);
    util::BitVec next(p.n_wires);
    for (std::size_t i = 0; i < p.n_wires; ++i) {
      prev.set(i, i % 2 == 0);
      next.set(i, i == victim ? prev[i] : !prev[i]);
    }
    const auto a = stored.transition(prev, next);
    const auto b = raw.transition(prev, next);
    for (std::size_t i = 0; i < p.n_wires; ++i) {
      EXPECT_EQ(stored.settled_logic(a[i]), raw.settled_logic(b[i]));
    }
  }
}


// ---- per-slot ND/SD verdict records ------------------------------------

using util::Logic;

/// A fraction f with f * vdd == level exactly (searched a few ulps around
/// level / vdd), so a threshold lands exactly on a stored sample.
std::optional<double> exact_frac(double level, double vdd) {
  double f = level / vdd;
  for (int k = 0; k < 16; ++k) {
    const double got = f * vdd;
    if (got == level) return f;
    f = std::nextafter(f, got < level
                              ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity());
  }
  return std::nullopt;
}

/// Random ND/SD params around the defaults.
NdParams random_nd(util::Prng& rng, double vdd) {
  NdParams p;
  p.vdd = vdd;
  p.v_hthr_frac = 0.02 + 0.7 * rng.next_double();
  p.v_hmin_frac = p.v_hthr_frac * rng.next_double();
  p.overshoot_frac = rng.next_bool(0.2) ? 0.0 : 0.3 * rng.next_double();
  return p;
}

SdParams random_sd(util::Prng& rng, double vdd) {
  SdParams p;
  p.vdd = vdd;
  p.skew_budget = static_cast<sim::Time>(20 + rng.next_below(400));
  p.vth_frac = 0.2 + 0.6 * rng.next_double();
  return p;
}

/// Wire i's driven levels under prev -> next.
Logic before(const mafm::VectorPair& vp, std::size_t i) {
  return util::to_logic(vp.v1[i]);
}
Logic after(const mafm::VectorPair& vp, std::size_t i) {
  return util::to_logic(vp.v2[i]);
}

TEST(BusVerdicts, RecordsMatchTheScanIncludingExactThresholds) {
  // Every wire of every MA transition on a defective bus, under random
  // params and under params placed exactly on one of the wire's stored
  // samples (ND arm and release, SD vth): the stored bus's verdict —
  // first asked (scanned into the record) and asked again (served from
  // it) — equals the direct scan and the store-off twin's verdict.
  const std::size_t n = 8;
  const BusParams p = params_n(n, 512);
  CoupledBus bus(p);
  CoupledBus raw = scalar_twin(p);
  for (CoupledBus* b : {&bus, &raw}) b->inject_crosstalk_defect(3, 6.0);

  util::Prng rng(0xD17Eu);
  std::size_t exact = 0;
  std::size_t nd_fired = 0;
  std::size_t sd_fired = 0;
  for (const mafm::VectorPair& vp : ma_pairs(n)) {
    const TransitionBatch b = bus.transition_batch(vp.v1, vp.v2);
    const TransitionBatch r = raw.transition_batch(vp.v1, vp.v2);
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE(i);
      ASSERT_NE(b.slots[i], TransitionBatch::kNoSlot);
      ASSERT_EQ(r.slots[i], TransitionBatch::kNoSlot);
      const WaveformView w = b.wire(i);
      const Logic from = before(vp, i);
      const Logic to = after(vp, i);
      NdParams nd = random_nd(rng, p.vdd);
      SdParams sd = random_sd(rng, p.vdd);
      // Place one threshold exactly on a stored sample's level.
      const double sample = w[rng.next_below(w.samples())];
      const double rail = util::to_bool(to) ? p.vdd : 0.0;
      const double dev = std::abs(sample - rail);
      switch (rng.next_below(3)) {
        case 0:
          if (auto f = exact_frac(dev, p.vdd)) {
            nd.v_hthr_frac = *f;
            ++exact;
          }
          break;
        case 1:
          if (auto f = exact_frac(dev, p.vdd)) {
            nd.v_hmin_frac = *f;
            ++exact;
          }
          break;
        default:
          if (auto f = exact_frac(sample, p.vdd)) {
            sd.vth_frac = *f;
            ++exact;
          }
      }
      const NdCell nd_cell(nd);
      const SdCell sd_cell(sd);
      const bool nd_want = nd_cell.violates(w, from, to);
      const bool sd_want = sd_cell.violates(w, from, to);
      EXPECT_EQ(raw.violates(r, i, nd_cell, from, to), nd_want);
      EXPECT_EQ(raw.violates(r, i, sd_cell, from, to), sd_want);
      for (int ask = 0; ask < 2; ++ask) {
        EXPECT_EQ(bus.violates(b, i, nd_cell, from, to), nd_want) << ask;
        EXPECT_EQ(bus.violates(b, i, sd_cell, from, to), sd_want) << ask;
      }
      nd_fired += nd_want ? 1 : 0;
      sd_fired += sd_want ? 1 : 0;
    }
  }
  EXPECT_GT(exact, 6 * n * n / 2) << "most thresholds land on a sample";
  EXPECT_GT(nd_fired, 0u);
  EXPECT_GT(sd_fired, 0u);
}

TEST(BusVerdicts, HandBuiltWaveformsAtThresholdLevels) {
  // Hand-built waveforms reach the verdict API as scratch wires (no
  // slot): a sample exactly at the ND arm level fires, one exactly at
  // the release level counts as having reached the rail band, and an SD
  // crossing exactly at vth commits at that sample.
  const CoupledBus bus(params_n(2, 64));
  NdParams ndp;
  ndp.v_hthr_frac = 0.5;
  ndp.v_hmin_frac = 0.25;
  ndp.overshoot_frac = 0.0;
  SdParams sdp;
  sdp.vth_frac = 0.5;
  sdp.skew_budget = 20 * sim::kPs;
  const NdCell nd(ndp);
  const SdCell sd(sdp);
  const double arm = ndp.v_hthr_frac * ndp.vdd;
  const double release = ndp.v_hmin_frac * ndp.vdd;
  const double vth = sdp.vth_frac * sdp.vdd;

  Waveform at_arm(64, sim::kPs, 0.0);  // quiet low wire, glitch to arm
  at_arm[10] = arm;
  Waveform below_arm(64, sim::kPs, 0.0);
  below_arm[10] = std::nextafter(arm, 0.0);
  // Rising wire: reaches the release band at exactly `release` short of
  // the rail, then falls back to exactly `arm` short of it (ringing).
  Waveform ring(64, sim::kPs, ndp.vdd);
  ring[0] = 0.0;
  ring[5] = ndp.vdd - release;
  ring[6] = ndp.vdd - release;
  ring[7] = ndp.vdd - arm;
  Waveform late(64, sim::kPs, ndp.vdd);  // crosses vth exactly at 30 ps
  for (std::size_t s = 0; s < 30; ++s) late[s] = 0.0;
  late[30] = vth;
  Waveform early(late);  // the same crossing at 10 ps
  for (std::size_t s = 10; s < 30; ++s) early[s] = ndp.vdd;

  const double* ptrs[] = {at_arm.data(), below_arm.data()};
  const std::uint32_t slots[] = {TransitionBatch::kNoSlot,
                                 TransitionBatch::kNoSlot};
  TransitionBatch quiet{ptrs, slots, 2, 64, sim::kPs};
  EXPECT_TRUE(bus.violates(quiet, 0, nd, Logic::L0, Logic::L0));
  EXPECT_FALSE(bus.violates(quiet, 1, nd, Logic::L0, Logic::L0));

  const double* rising[] = {ring.data(), late.data()};
  TransitionBatch rise{rising, slots, 2, 64, sim::kPs};
  EXPECT_TRUE(bus.violates(rise, 0, nd, Logic::L0, Logic::L1));
  EXPECT_FALSE(bus.violates(rise, 1, nd, Logic::L0, Logic::L1));
  EXPECT_TRUE(bus.violates(rise, 1, sd, Logic::L0, Logic::L1));
  ASSERT_EQ(sd.arrival_time(late), 30 * sim::kPs);
  ASSERT_EQ(sd.arrival_time(early), 10 * sim::kPs);
  const double* ontime[] = {early.data(), early.data()};
  TransitionBatch fast{ontime, slots, 2, 64, sim::kPs};
  EXPECT_FALSE(bus.violates(fast, 0, sd, Logic::L0, Logic::L1));
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(bus.violates(quiet, i, nd, Logic::L0, Logic::L0),
              nd.violates(quiet.wire(i), Logic::L0, Logic::L0));
    EXPECT_EQ(bus.violates(rise, i, nd, Logic::L0, Logic::L1),
              nd.violates(rise.wire(i), Logic::L0, Logic::L1));
    EXPECT_EQ(bus.violates(rise, i, sd, Logic::L0, Logic::L1),
              sd.violates(rise.wire(i), Logic::L0, Logic::L1));
  }
}

TEST(BusVerdicts, RecordIsKeyedByParams) {
  // One slot asked in turn under two ND and two SD param sets that
  // disagree: each answer is the scan under the params asked.
  const std::size_t n = 8;
  CoupledBus bus(params_n(n, 512));
  const mafm::VectorPair pg = mafm::vectors_for(mafm::MaFault::Pg, n, 3);
  const mafm::VectorPair rs = mafm::vectors_for(mafm::MaFault::Rs, n, 3);
  NdParams tight;
  tight.v_hthr_frac = 0.02;
  NdParams loose;
  loose.v_hthr_frac = 0.95;
  loose.overshoot_frac = 0.0;
  SdParams fast;
  fast.skew_budget = 1;
  SdParams slow;
  slow.skew_budget = 2000;

  const TransitionBatch b = bus.transition_batch(pg.v1, pg.v2);
  const Logic q = before(pg, 3);
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(bus.violates(b, 3, NdCell(tight), q, q));
    EXPECT_FALSE(bus.violates(b, 3, NdCell(loose), q, q));
  }
  const TransitionBatch s = bus.transition_batch(rs.v1, rs.v2);
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(bus.violates(s, 3, SdCell(fast), before(rs, 3),
                             after(rs, 3)));
    EXPECT_FALSE(bus.violates(s, 3, SdCell(slow), before(rs, 3),
                              after(rs, 3)));
  }
}

TEST(BusVerdicts, GenerationBumpResetsTheRecord) {
  // The same MA window lands in the same prefill slot after a defect
  // bump, with a different waveform: the record scanned before the bump
  // must not answer after it.
  const std::size_t n = 8;
  CoupledBus bus(params_n(n, 512));
  const mafm::VectorPair pg = mafm::vectors_for(mafm::MaFault::Pg, n, 3);
  const NdCell nd{NdParams{}};
  const Logic q = before(pg, 3);

  const TransitionBatch clean = bus.transition_batch(pg.v1, pg.v2);
  const std::uint32_t slot = clean.slots[3];
  ASSERT_FALSE(bus.violates(clean, 3, nd, q, q)) << "healthy: no glitch";

  bus.inject_crosstalk_defect(3, 8.0);
  const TransitionBatch bad = bus.transition_batch(pg.v1, pg.v2);
  ASSERT_EQ(bad.slots[3], slot) << "same window, same prefill slot";
  ASSERT_TRUE(nd.violates(bad.wire(3), q, q)) << "the defect must fire ND";
  EXPECT_TRUE(bus.violates(bad, 3, nd, q, q));
}

TEST(BusVerdicts, RecycledFifoSlotResetsTheRecord) {
  // FIFO slot 0 first holds a flat quiet window (clean under a hair-
  // trigger ND cell), then is recycled for a quiet window beside a
  // rising neighbour (a glitch: fires). The recycled slot must answer
  // for its new waveform.
  const std::size_t n = 8;
  const BusParams p = params_n(n, 64);
  CoupledBus bus(p);
  NdParams hair;
  hair.v_hthr_frac = 1e-6;
  const NdCell nd(hair);

  const util::BitVec zeros(n);
  const TransitionBatch flat = bus.transition_batch(zeros, zeros);
  ASSERT_EQ(bus.cache_misses(), n) << "all-quiet windows are not MA";
  const std::uint32_t slot = flat.slots[0];
  ASSERT_FALSE(bus.violates(flat, 0, nd, Logic::L0, Logic::L0));

  // A quiet wire 0 beside a rising wire 1.
  util::BitVec next(n);
  next.set(1, true);
  const mafm::VectorPair t{zeros, next};
  const std::uint64_t t_key = neighborhood_key(n, 0, t.v1, t.v2);

  // Fill the rest of the FIFO from wires 2..7, so that slot 0 is the
  // oldest and next in line.
  util::Prng rng(0xF1F0u);
  while (bus.cache_misses() < CoupledBus::kMaxCacheEntries) {
    const util::BitVec prev = random_vec(rng, n);
    const util::BitVec nxt = random_vec(rng, n);
    const std::size_t w = 2 + rng.next_below(n - 2);
    ASSERT_NE(neighborhood_key(n, w, prev, nxt), t_key);
    bus.wire_response(w, prev, nxt);
  }
  const TransitionBatch glitch = bus.transition_batch(t.v1, t.v2);
  ASSERT_EQ(glitch.slots[0], slot) << "wire 0 must recycle FIFO slot 0";
  ASSERT_TRUE(nd.violates(glitch.wire(0), Logic::L0, Logic::L0));
  EXPECT_TRUE(bus.violates(glitch, 0, nd, Logic::L0, Logic::L0));
}

TEST(BusVerdicts, LevelsOtherThanTheSlotsOwnAreScanned) {
  // A record answers only for its slot's own driven levels; asked about
  // the same stored waveform under other levels, the bus scans.
  const std::size_t n = 8;
  CoupledBus bus(params_n(n, 512));
  const mafm::VectorPair rs = mafm::vectors_for(mafm::MaFault::Rs, n, 3);
  const TransitionBatch b = bus.transition_batch(rs.v1, rs.v2);
  const NdCell nd{NdParams{}};
  const Logic from = before(rs, 3);
  const Logic to = after(rs, 3);
  ASSERT_NE(from, to);
  ASSERT_FALSE(bus.violates(b, 3, nd, from, to));
  EXPECT_EQ(bus.violates(b, 3, nd, to, to), nd.violates(b.wire(3), to, to));
  EXPECT_EQ(bus.violates(b, 3, nd, from, from),
            nd.violates(b.wire(3), from, from));
  EXPECT_TRUE(bus.violates(b, 3, nd, from, from))
      << "a rising wire read as quiet-low is far off its rail";
}

}  // namespace
}  // namespace jsi::si
