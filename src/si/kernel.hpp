#ifndef JSI_SI_KERNEL_HPP
#define JSI_SI_KERNEL_HPP

#include <cstddef>
#include <cstdint>

#include "si/bus_model.hpp"
#include "si/model.hpp"
#include "si/waveform.hpp"
#include "sim/time.hpp"
#include "util/bitvec.hpp"

namespace jsi::si {

/// One evaluated bus transition: a per-wire array of sample pointers into
/// the bus's waveform store. Non-owning — the batch (and every
/// `WaveformView` derived from it) is valid until the owning
/// `CoupledBus`'s next `transition_batch` call, defect mutation, clone or
/// destruction.
struct TransitionBatch {
  /// slots[i] of a wire solved into the bus's scratch block (no store
  /// slot): a disabled store, or a miss that could not take a slot.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  const double* const* ptrs = nullptr;  ///< ptrs[i] = wire i's samples
  /// slots[i] = wire i's store slot, or kNoSlot. The owning bus keys its
  /// per-slot ND/SD verdict records by it (`CoupledBus::violates`).
  const std::uint32_t* slots = nullptr;
  std::size_t n_wires = 0;
  std::size_t samples = 0;
  sim::Time dt = sim::kPs;

  WaveformView wire(std::size_t i) const {
    return WaveformView(ptrs[i], samples, dt);
  }
};

/// The one waveform solver over a `BusModel`'s SoA arrays — a thin
/// dispatcher onto the bus's selected `InterconnectModel`.
///
/// `solve_wire()` fills one wire's waveform of one transition. The
/// waveform store (`CoupledBus`) solves every stored and every scratch
/// waveform through it, the MA prefill included, so a waveform's bytes
/// never depend on which path asked for it. Stateless: sample storage
/// is provided by the caller (a store slot or the bus's scratch block).
class TransitionKernel {
 public:
  /// Fill `out[0 .. samples)` with wire `i`'s waveform of prev -> next.
  /// Width of the vectors must equal `m.n()` (unchecked here; the
  /// `CoupledBus` facade validates).
  static void solve_wire(const BusModel& m, std::size_t i,
                         const util::BitVec& prev, const util::BitVec& next,
                         double* out);
};

/// Store key of wire `i` under transition prev -> next: the wire index plus
/// the 5-bit local neighbourhood [i-2, i+2] of both vectors — the exact
/// electrical support of the per-wire solver (own transition, neighbours'
/// transitions, and *their* neighbours' Miller time constants).
/// Out-of-range positions encode as 0, which the solver ignores. Always
/// below `n_wires << 10`; the `CoupledBus` waveform store indexes by it.
std::uint64_t neighborhood_key(std::size_t n_wires, std::size_t i,
                               const util::BitVec& prev,
                               const util::BitVec& next);

}  // namespace jsi::si

#endif  // JSI_SI_KERNEL_HPP
