#ifndef JSI_SI_BUS_HPP
#define JSI_SI_BUS_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/events.hpp"
#include "si/bus_model.hpp"
#include "si/detectors.hpp"
#include "si/kernel.hpp"
#include "si/waveform.hpp"
#include "sim/time.hpp"
#include "util/bitvec.hpp"
#include "util/logic.hpp"

namespace jsi::si {

/// Analytic coupled-RC(+L) model of the bus between two cores.
///
/// For each bus transition `prev -> next` the model produces the receiving-
/// end voltage waveform of every wire:
///
///  * a **switching** wire follows a single-pole exponential whose time
///    constant includes the Miller-weighted coupling capacitance (factor 0
///    toward a neighbor switching the same way, 1 toward a quiet neighbor,
///    2 toward an opposite-phase neighbor) — this reproduces the Rs/Fs
///    delay push-out of the MA fault model. With `l_wire > 0` an
///    underdamped second-order response adds overshoot/ringing.
///  * a **quiet** wire stays at its rail plus the superposed
///    double-exponential crosstalk glitch injected by each switching
///    neighbor through the pair's coupling capacitor — the Pg/Ng family.
///
/// Manufacturing defects are injected by scaling a pair's coupling
/// capacitance and/or adding series resistance to a wire (resistive open /
/// weak driver), which is exactly the defect class the paper targets:
/// "process variations and manufacturing defects may lead to an unexpected
/// increase in coupling capacitances".
///
/// Internally this is a facade over three components: an immutable-between-
/// mutations `BusModel` (SoA electrical state), the one per-wire solver
/// (`TransitionKernel::solve_wire`) and one waveform store: a pool of
/// solved per-wire waveforms keyed by `neighborhood_key`, prefilled with
/// the windows of the 6*n MA vector pairs per defect generation, each
/// slot carrying its ND/SD verdict record. The hot path is
/// `transition_batch()` plus `violates()`; `wire_response()` /
/// `transition()` are the owning scalar API over the same store.
class CoupledBus {
 public:
  explicit CoupledBus(BusParams p);

  /// Deep copy for per-shard use: electrical state, injected defects and
  /// the waveform store (slots *and* hit/miss counters) are carried over,
  /// so a clone of a warmed bus starts warm. The observability sink is
  /// deliberately NOT carried over — a clone lives on another worker
  /// thread, and sharing the source's sink would race; attach a
  /// thread-local sink with set_sink() after cloning.
  CoupledBus clone() const;

  const BusParams& params() const { return model_.params(); }
  std::size_t n() const { return model_.n(); }

  /// The electrical half (params + defect state as SoA arrays).
  const BusModel& model() const { return model_; }

  // ---- defect / process-variation injection -------------------------------

  /// Multiply the coupling capacitance of adjacent pair `pair` = (pair,
  /// pair+1) by `factor`. Cumulative.
  void scale_coupling(std::size_t pair, double factor);

  /// Add series resistance to `wire` (resistive open, weak driver).
  void add_series_resistance(std::size_t wire, double ohms);

  /// Composite crosstalk defect around `wire`: scales both adjacent
  /// couplings by `severity` and weakens the wire's driver proportionally.
  /// `severity` 1.0 is a no-op; ~5+ produces detectable glitches with the
  /// default detector thresholds.
  void inject_crosstalk_defect(std::size_t wire, double severity);

  /// Remove all injected defects.
  void clear_defects();

  // ---- electrical queries --------------------------------------------------

  /// Effective coupling capacitance of adjacent pair `pair` [F].
  double coupling(std::size_t pair) const { return model_.coupling(pair); }

  /// Total series resistance of `wire` including defects [Ohm].
  double resistance(std::size_t wire) const {
    return model_.resistance(wire);
  }

  /// Total capacitance seen by `wire` (ground + both couplings) [F].
  double total_cap(std::size_t wire) const { return model_.total_cap(wire); }

  /// Self time constant R*C of `wire` with current defects [s].
  double self_tau(std::size_t wire) const { return model_.self_tau(wire); }

  /// Defect-free 50% delay of `wire` — the designer's timing expectation
  /// from which the SD cell's skew-immune window is budgeted.
  sim::Time nominal_delay(std::size_t wire) const {
    return model_.nominal_delay(wire);
  }

  // ---- simulation ----------------------------------------------------------

  /// Receiving-end waveform of wire `i` for bus transition `prev -> next`
  /// (bit vectors of width n, bit k = logic level of wire k). Owning
  /// scalar API: a copy out of the waveform store.
  Waveform wire_response(std::size_t i, const util::BitVec& prev,
                         const util::BitVec& next) const;

  /// All wire waveforms for one bus transition (owning scalar API).
  std::vector<Waveform> transition(const util::BitVec& prev,
                                   const util::BitVec& next) const;

  /// All wire waveforms for one bus transition, zero-copy. The fast path:
  /// every wire resolves to its waveform in the store (solved into a slot
  /// on a miss), MA pattern or not, with no copies. The returned batch
  /// and every view derived from it are valid until the next
  /// transition_batch() call, defect mutation, clone or destruction of
  /// this bus.
  TransitionBatch transition_batch(const util::BitVec& prev,
                                   const util::BitVec& next) const;

  /// Unmetered read of wire `i`'s waveform for `prev -> next`, for
  /// offline analysis after a session: the stored slot when the window is
  /// resident (every MA window is, once the generation's prefill ran),
  /// else solved into the scratch block. Counts no hit or miss and emits
  /// no lookup event, so it leaves no trace in the session's metrics.
  /// Valid until the next peek(), transition_batch(), defect mutation,
  /// clone or destruction of this bus; a scratch solve also overwrites
  /// the scratch wires of the latest transition_batch().
  WaveformView peek(std::size_t i, const util::BitVec& prev,
                    const util::BitVec& next) const;

  /// Would `cell` flag wire `i` of `b` — this bus's latest
  /// transition_batch() — for a wire driven `initial` -> `expected`?
  /// Exactly `cell.violates(b.wire(i), initial, expected)`; for a stored
  /// wire the answer comes from its slot's verdict record, scanned once
  /// per slot and cell params. A scratch wire (no slot), and levels other
  /// than the slot's own transition, are scanned every call.
  bool violates(const TransitionBatch& b, std::size_t i, const NdCell& cell,
                util::Logic initial, util::Logic expected) const;
  bool violates(const TransitionBatch& b, std::size_t i, const SdCell& cell,
                util::Logic initial, util::Logic expected) const;

  /// Logic value a receiver reads once the waveform settles (the
  /// interconnect model's receiver threshold on the final sample —
  /// vdd/2 for rc_full_swing, the level-converter Vt for low_swing).
  util::Logic settled_logic(WaveformView w) const;

  // ---- waveform store ------------------------------------------------------
  //
  // One pool of solved waveforms, one slot (`samples` doubles) each. The
  // key is the wire index plus the 5-bit local neighbourhood [i-2, i+2]
  // of (prev, next) (`neighborhood_key`) — the exact electrical support
  // of a wire's response: its own transition, its neighbours'
  // transitions (glitch injection) and *their* neighbours (the
  // aggressors' Miller time constants), and nothing farther away. Every
  // lookup, batched or scalar, MA pattern or not, goes through this one
  // key, so a waveform is solved at most once per generation while it
  // stays resident.
  //
  // Generation rule: every defect mutation (scale_coupling,
  // add_series_resistance, inject_crosstalk_defect, clear_defects) bumps
  // `defect_generation()`. The store belongs to one generation and is
  // flushed wholesale on the first lookup after a bump; that lookup also
  // prefills the MA set, solving each window of it once (see
  // precompile_tables). Hit/miss counters survive invalidation (they
  // meter the workload, not the contents).
  //
  // Verdict rule: beside each slot sits one ND and one SD verdict record
  // — the last NdParams / SdParams asked about the slot's waveform and
  // the cell's answer (`violates()`). A record is reset whenever its
  // slot is filled: by the prefill, by a miss, by a FIFO recycle, and
  // by the flush of a generation. So a stored waveform is scanned once
  // per detector parameter set, however often a session re-applies it.
  //
  // Capacity rule: the prefilled MA slots stay for the generation; other
  // waveforms share kMaxCacheEntries slots recycled as a bounded FIFO
  // (a miss on a full store reuses the oldest slot, so a working set one
  // larger than the cap degrades by one entry, not to a 0% hit rate). A
  // batch never recycles a slot it already resolved: such a wire is
  // solved into the bus's scratch block instead, uncached.
  //
  // Slots are addressed by offset (the MA prefill and the FIFO slots each
  // in one flat buffer), so clone() is a plain copy and a clone of a warm
  // bus starts warm.

  /// Enable/disable the store (enabled by default). Disabling drops it
  /// and solves every wire into a per-bus scratch block on the kernel's
  /// scalar reference path, unmetered.
  void set_cache_enabled(bool on);
  bool cache_enabled() const { return cache_on_; }

  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t cache_misses() const { return cache_misses_; }

  /// hits / (hits + misses), 0 when nothing was looked up yet.
  double cache_hit_rate() const;

  /// Waveforms currently resident (prefill + FIFO slots in use).
  std::size_t cache_entries() const;

  /// Monotone counter of defect-state mutations; stored waveforms are
  /// only ever served within one generation.
  std::uint64_t defect_generation() const {
    return model_.defect_generation();
  }

  /// Drop all stored waveforms (counters are kept); the next lookup
  /// refills. Deliberately non-const: flushing is a real state mutation,
  /// and per-shard clones must not be able to reset each other through a
  /// const reference.
  void clear_cache();

  /// Prefill the store with the MA set for the current defect state now
  /// rather than on the generation's first lookup (idempotent per
  /// generation; buses wider than kMaxPrefillWires and disabled stores
  /// skip it). The prefill is not metered.
  void precompile_tables();

  /// Forwards to set_cache_enabled(); kept for callers that name the MA
  /// prefill. Not a second toggle.
  void set_tables_enabled(bool on) { set_cache_enabled(on); }

  /// Forwards to cache_misses(): the store's one miss counter.
  std::uint64_t table_misses() const { return cache_misses(); }

  /// Attach an observability sink. Every store lookup reports a
  /// CacheLookup record named "si.cache" (a=1 hit, a=0 miss, b=wire).
  /// nullptr (default) disables emission; a disabled store never emits.
  void set_sink(obs::Sink* sink) { sink_ = sink; }

  /// FIFO slots beside the MA prefill (one slot is `samples` doubles, so
  /// ~16 MB with the 2048-sample default).
  static constexpr std::size_t kMaxCacheEntries = 1024;

  /// Widest bus whose MA set is prefilled: the set grows as 6*n pairs
  /// (2,012 waveforms, 31 MB at 64 wires), so wider buses, outside the
  /// paper's regime, use the FIFO slots alone.
  static constexpr std::size_t kMaxPrefillWires = 64;

 private:
  static constexpr std::uint32_t kNoSlot = TransitionBatch::kNoSlot;
  static constexpr std::uint32_t kUnfilled = 0xfffffffeu;  // prefill mark
  // store_gen_ of a flushed store: no defect generation reaches it.
  static constexpr std::uint64_t kStaleGeneration = ~std::uint64_t{0};

  void require_vector_widths(const util::BitVec& prev,
                             const util::BitVec& next) const;

  /// Bring the store to the current generation: flush after a bump (or a
  /// clear), then prefill the MA set.
  void sync_store() const;

  /// Slot of wire i's waveform for prev -> next, solved into a slot on a
  /// miss; meters and emits the lookup. Returns kNoSlot when the miss
  /// would recycle one of held[0 .. n_held) — the caller then solves into
  /// scratch.
  std::uint32_t lookup(std::size_t i, const util::BitVec& prev,
                       const util::BitVec& next, const std::uint32_t* held,
                       std::size_t n_held) const;

  /// One detector verdict record: the last params asked and the answer.
  template <class Params>
  struct Verdict {
    Params params{};
    std::int8_t value = -1;  // -1: not scanned since the slot was filled
  };

  /// Bookkeeping beside a slot's samples; a slot fill resets it whole.
  struct Slot {
    std::uint64_t key = 0;
    Verdict<NdParams> nd;
    Verdict<SdParams> sd;
  };

  /// The verdict record `field` of wire i's slot, scanning on a miss.
  template <class Cell, class Params>
  bool verdict(Verdict<Params> Slot::*field, const TransitionBatch& b,
               std::size_t i, const Cell& cell, util::Logic initial,
               util::Logic expected) const;

  double* slot_data(std::uint32_t s) const {
    const std::size_t samples = model_.params().samples;
    return s < prefill_slots_ ? prefill_.data() + s * samples
                              : fifo_.data() + (s - prefill_slots_) * samples;
  }

  BusModel model_;

  bool cache_on_ = true;
  // Slots [0, prefill_slots_) are the MA set in prefill_; slot
  // prefill_slots_ + f is FIFO slot f in fifo_. Two buffers so that
  // growing the FIFO never moves (and copies) the prefill.
  mutable std::vector<double> prefill_;
  mutable std::vector<double> fifo_;
  mutable std::vector<std::uint32_t> slot_of_;  // neighborhood_key -> slot
  mutable std::vector<Slot> slots_;  // slot -> key and verdict records
  mutable std::size_t prefill_slots_ = 0;
  mutable std::size_t fifo_inserts_ = 0;  // FIFO slots claimed since flush
  mutable std::uint64_t store_gen_ = kStaleGeneration;
  mutable std::uint64_t cache_hits_ = 0;
  mutable std::uint64_t cache_misses_ = 0;

  mutable std::vector<double> scratch_;  // n*samples: unstored wires
  mutable std::vector<std::uint32_t> batch_slots_;
  mutable std::vector<const double*> batch_ptrs_;

  obs::Sink* sink_ = nullptr;
};

/// True when `bus` is non-null and models exactly `expected` wires — the
/// "may I clone this prototype?" predicate shared by the campaign
/// runner's per-unit bus factory and the scenario builder.
bool matches_width(const CoupledBus* bus, std::size_t expected);

/// Throw std::invalid_argument unless `bus.n() == expected`. The single
/// checked width gate used by SiSocDevice; the message
/// names the bus's interconnect model kind, e.g.
/// `low_swing bus width 16 != expected 8`.
void require_width(const CoupledBus& bus, std::size_t expected);

}  // namespace jsi::si

#endif  // JSI_SI_BUS_HPP
