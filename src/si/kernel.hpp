#ifndef JSI_SI_KERNEL_HPP
#define JSI_SI_KERNEL_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

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
  const double* const* ptrs = nullptr;  ///< ptrs[i] = wire i's samples
  std::size_t n_wires = 0;
  std::size_t samples = 0;
  sim::Time dt = sim::kPs;

  WaveformView wire(std::size_t i) const {
    return WaveformView(ptrs[i], samples, dt);
  }
};

/// Stateless-per-call waveform solver over a `BusModel`'s SoA arrays —
/// a thin dispatcher onto the bus's selected `InterconnectModel`.
///
/// `evaluate()` produces all n wires of one transition into a single
/// contiguous `n * samples` block (wire i at `out + i*samples`); the
/// model's pass 1 classifies every wire and computes the switching time
/// constants into the reusable `KernelScratch`, pass 2 fills the sample
/// block wire-by-wire with tight per-sample loops.
///
/// `solve_wire()` is the scalar reference path: it evaluates one wire
/// exactly as the pre-batching `CoupledBus` solver did. Every model's
/// two paths share the same non-inlined solver primitives
/// (`switching_tau`, the fill and glitch loops), so batched and scalar
/// results are bit-for-bit identical by construction — the differential
/// suites in tests/si/test_bus_properties.cpp and tests/si/test_models.cpp
/// pin this with EXPECT_EQ on doubles for every registered model.
///
/// The only heap state is the reusable pass-1 scratch (sized n, amortized
/// to zero allocations in steady state); sample storage is provided by
/// the caller (the bus's waveform store or scratch block).
class TransitionKernel {
 public:
  /// Fill `out[0 .. n*samples)` with all wire waveforms of prev -> next.
  /// Width of the vectors must equal `m.n()` (unchecked here; the
  /// `CoupledBus` facade validates).
  void evaluate(const BusModel& m, const util::BitVec& prev,
                const util::BitVec& next, double* out);

  /// Scalar reference: fill `out[0 .. samples)` with wire `i`'s waveform.
  static void solve_wire(const BusModel& m, std::size_t i,
                         const util::BitVec& prev, const util::BitVec& next,
                         double* out);

 private:
  // Pass-1 SoA scratch, reused across evaluate() calls and handed to the
  // model so the indirection adds no per-call allocations.
  KernelScratch scratch_;
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
