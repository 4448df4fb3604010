#include "si/bus.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "mafm/fault.hpp"
#include "si/model.hpp"

namespace jsi::si {

CoupledBus::CoupledBus(BusParams p) : model_(p) {}

CoupledBus CoupledBus::clone() const {
  CoupledBus c = *this;
  c.sink_ = nullptr;  // sinks are thread-local; never shared with a clone
  return c;
}

void CoupledBus::scale_coupling(std::size_t pair, double factor) {
  model_.scale_coupling(pair, factor);
}

void CoupledBus::add_series_resistance(std::size_t wire, double ohms) {
  model_.add_series_resistance(wire, ohms);
}

void CoupledBus::inject_crosstalk_defect(std::size_t wire, double severity) {
  model_.inject_crosstalk_defect(wire, severity);
}

void CoupledBus::clear_defects() { model_.clear_defects(); }

void CoupledBus::set_cache_enabled(bool on) {
  cache_on_ = on;
  if (!on) clear_cache();
}

double CoupledBus::cache_hit_rate() const {
  const std::uint64_t lookups = cache_hits_ + cache_misses_;
  return lookups == 0
             ? 0.0
             : static_cast<double>(cache_hits_) / static_cast<double>(lookups);
}

std::size_t CoupledBus::cache_entries() const {
  return (prefill_.size() + fifo_.size()) / model_.params().samples;
}

void CoupledBus::clear_cache() {
  prefill_ = {};
  fifo_ = {};
  slot_of_ = {};
  slots_ = {};
  store_gen_ = kStaleGeneration;
}

void CoupledBus::precompile_tables() {
  if (cache_on_) sync_store();
}

void CoupledBus::require_vector_widths(const util::BitVec& prev,
                                       const util::BitVec& next) const {
  if (prev.size() != model_.n() || next.size() != model_.n()) {
    throw std::invalid_argument("vector width != bus width");
  }
}

void CoupledBus::sync_store() const {
  if (store_gen_ == model_.defect_generation()) return;
  const std::size_t n = model_.n();
  const std::size_t samples = model_.params().samples;
  prefill_.clear();
  fifo_.clear();
  slots_.clear();
  prefill_slots_ = 0;
  slot_of_.assign(n << 10, kNoSlot);  // neighborhood_key < n * 2^10
  fifo_inserts_ = 0;
  store_gen_ = model_.defect_generation();

  // Prefill, in two passes. The first marks every window of the MA set
  // so prefill_ is sized once: growing it slot by slot would reallocate
  // and copy it several times on every fresh bus. The second solves each
  // still-unfilled window straight into its slot. Across the set most
  // windows repeat, so the prefill holds far fewer than 6*n*n waveforms
  // (220 at 8 wires), and each is solved once.
  if (n <= kMaxPrefillWires) {
    std::vector<mafm::VectorPair> pairs;
    std::size_t windows = 0;
    for (const mafm::MaFault f : mafm::kAllFaults) {
      for (std::size_t victim = 0; victim < n; ++victim) {
        const mafm::VectorPair& vp =
            pairs.emplace_back(mafm::vectors_for(f, n, victim));
        for (std::size_t i = 0; i < n; ++i) {
          std::uint32_t& s = slot_of_[neighborhood_key(n, i, vp.v1, vp.v2)];
          if (s == kNoSlot) {
            s = kUnfilled;
            ++windows;
          }
        }
      }
    }
    prefill_.resize(windows * samples);
    slots_.reserve(windows);
    for (const mafm::VectorPair& vp : pairs) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = neighborhood_key(n, i, vp.v1, vp.v2);
        if (slot_of_[key] != kUnfilled) continue;
        double* dst = prefill_.data() + prefill_slots_ * samples;
        TransitionKernel::solve_wire(model_, i, vp.v1, vp.v2, dst);
        slot_of_[key] = static_cast<std::uint32_t>(prefill_slots_++);
        slots_.push_back(Slot{key, {}, {}});
      }
    }
  }
}

std::uint32_t CoupledBus::lookup(std::size_t i, const util::BitVec& prev,
                                 const util::BitVec& next,
                                 const std::uint32_t* held,
                                 std::size_t n_held) const {
  const std::uint64_t key = neighborhood_key(model_.n(), i, prev, next);
  std::uint32_t s = slot_of_[key];
  const bool hit = s != kNoSlot;
  if (sink_) {
    obs::Event e;
    e.kind = obs::EventKind::CacheLookup;
    e.name = "si.cache";
    e.a = hit ? 1 : 0;
    e.b = static_cast<std::int64_t>(i);
    sink_->on_event(e);
  }
  if (hit) {
    ++cache_hits_;
    return s;
  }
  ++cache_misses_;
  s = static_cast<std::uint32_t>(prefill_slots_ +
                                 fifo_inserts_ % kMaxCacheEntries);
  if (fifo_inserts_ < kMaxCacheEntries) {
    fifo_.resize(fifo_.size() + model_.params().samples);
    slots_.push_back(Slot{key, {}, {}});
  } else {
    // Bounded FIFO: recycle the oldest slot — unless the caller still
    // reads it.
    if (std::find(held, held + n_held, s) != held + n_held) return kNoSlot;
    slot_of_[slots_[s].key] = kNoSlot;
    slots_[s] = Slot{key, {}, {}};  // a recycled slot's verdicts are stale
  }
  slot_of_[key] = s;
  ++fifo_inserts_;
  TransitionKernel::solve_wire(model_, i, prev, next, slot_data(s));
  return s;
}

Waveform CoupledBus::wire_response(std::size_t i, const util::BitVec& prev,
                                   const util::BitVec& next) const {
  require_vector_widths(prev, next);
  Waveform w(model_.params().samples, model_.params().sample_dt);
  if (!cache_on_) {
    TransitionKernel::solve_wire(model_, i, prev, next, w.data());
    return w;
  }
  sync_store();
  std::memcpy(w.data(), slot_data(lookup(i, prev, next, nullptr, 0)),
              w.samples() * sizeof(double));
  return w;
}

WaveformView CoupledBus::peek(std::size_t i, const util::BitVec& prev,
                              const util::BitVec& next) const {
  require_vector_widths(prev, next);
  const std::size_t samples = model_.params().samples;
  const sim::Time dt = model_.params().sample_dt;
  if (cache_on_) {
    sync_store();
    const std::uint32_t s =
        slot_of_[neighborhood_key(model_.n(), i, prev, next)];
    if (s != kNoSlot) return WaveformView(slot_data(s), samples, dt);
  }
  scratch_.resize(model_.n() * samples);
  TransitionKernel::solve_wire(model_, i, prev, next, scratch_.data());
  return WaveformView(scratch_.data(), samples, dt);
}

std::vector<Waveform> CoupledBus::transition(const util::BitVec& prev,
                                             const util::BitVec& next) const {
  std::vector<Waveform> out;
  out.reserve(model_.n());
  for (std::size_t i = 0; i < model_.n(); ++i) {
    out.push_back(wire_response(i, prev, next));
  }
  return out;
}

TransitionBatch CoupledBus::transition_batch(const util::BitVec& prev,
                                             const util::BitVec& next) const {
  require_vector_widths(prev, next);
  const std::size_t n = model_.n();
  const std::size_t samples = model_.params().samples;

  // Resolve every wire to a slot first: a miss may grow the FIFO
  // buffer, so pointers are only taken once the batch's slots are final.
  batch_slots_.assign(n, kNoSlot);
  if (cache_on_) {
    sync_store();
    for (std::size_t i = 0; i < n; ++i) {
      batch_slots_[i] = lookup(i, prev, next, batch_slots_.data(), i);
    }
  }
  batch_ptrs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (batch_slots_[i] != kNoSlot) {
      batch_ptrs_[i] = slot_data(batch_slots_[i]);
      continue;
    }
    scratch_.resize(n * samples);
    double* dst = scratch_.data() + i * samples;
    TransitionKernel::solve_wire(model_, i, prev, next, dst);
    batch_ptrs_[i] = dst;
  }

  TransitionBatch b;
  b.ptrs = batch_ptrs_.data();
  b.slots = batch_slots_.data();
  b.n_wires = n;
  b.samples = samples;
  b.dt = model_.params().sample_dt;
  return b;
}

template <class Cell, class Params>
bool CoupledBus::verdict(Verdict<Params> Slot::*field,
                         const TransitionBatch& b, std::size_t i,
                         const Cell& cell, util::Logic initial,
                         util::Logic expected) const {
  const std::uint32_t s = b.slots[i];
  // A record answers only for its slot's own driven levels: the centre
  // bits of the key's prev and next windows.
  if (s == kNoSlot ||
      initial != util::to_logic(((slots_[s].key >> 7) & 1u) != 0) ||
      expected != util::to_logic(((slots_[s].key >> 2) & 1u) != 0)) {
    return cell.violates(b.wire(i), initial, expected);
  }
  Verdict<Params>& v = slots_[s].*field;
  if (v.value < 0 || !(v.params == cell.params())) {
    v.params = cell.params();
    v.value = cell.violates(b.wire(i), initial, expected) ? 1 : 0;
  }
  return v.value != 0;
}

bool CoupledBus::violates(const TransitionBatch& b, std::size_t i,
                          const NdCell& cell, util::Logic initial,
                          util::Logic expected) const {
  return verdict(&Slot::nd, b, i, cell, initial, expected);
}

bool CoupledBus::violates(const TransitionBatch& b, std::size_t i,
                          const SdCell& cell, util::Logic initial,
                          util::Logic expected) const {
  return verdict(&Slot::sd, b, i, cell, initial, expected);
}

util::Logic CoupledBus::settled_logic(WaveformView w) const {
  return util::to_logic(
      w.final_value() >=
      model_for(params().model).settled_threshold(model_.params()));
}

bool matches_width(const CoupledBus* bus, std::size_t expected) {
  return bus != nullptr && bus->n() == expected;
}

void require_width(const CoupledBus& bus, std::size_t expected) {
  if (bus.n() != expected) {
    std::ostringstream os;
    os << model_kind_name(bus.params().model) << " bus width " << bus.n()
       << " != expected " << expected;
    throw std::invalid_argument(os.str());
  }
}

}  // namespace jsi::si
