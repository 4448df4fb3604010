#include "si/kernel.hpp"

#include "si/model.hpp"

namespace jsi::si {

void TransitionKernel::solve_wire(const BusModel& m, std::size_t i,
                                  const util::BitVec& prev,
                                  const util::BitVec& next, double* out) {
  model_for(m.params().model).solve_wire(m, i, prev, next, out);
}

std::uint64_t neighborhood_key(std::size_t n_wires, std::size_t i,
                               const util::BitVec& prev,
                               const util::BitVec& next) {
  // 5-bit local windows [i-2, i+2]; positions beyond the bus encode as 0.
  std::uint64_t pbits = 0;
  std::uint64_t nbits = 0;
  for (int off = -2; off <= 2; ++off) {
    const long long j = static_cast<long long>(i) + off;
    pbits <<= 1;
    nbits <<= 1;
    if (j >= 0 && j < static_cast<long long>(n_wires)) {
      pbits |= prev[static_cast<std::size_t>(j)] ? 1u : 0u;
      nbits |= next[static_cast<std::size_t>(j)] ? 1u : 0u;
    }
  }
  return (static_cast<std::uint64_t>(i) << 10) | (pbits << 5) | nbits;
}

}  // namespace jsi::si
