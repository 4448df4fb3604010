#ifndef JSI_OBS_PROFILE_HPP
#define JSI_OBS_PROFILE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/telemetry.hpp"

namespace jsi::obs {

/// A merged campaign's folded books: the unit, violation, failure and TCK
/// totals the campaign report prints. The caller passes them in rather
/// than letting the profile re-sum a unit list, because an aggregated
/// campaign does not retain one.
struct ProfileTotals {
  std::uint64_t units = 0;
  std::uint64_t violations = 0;
  std::uint64_t failures = 0;
  std::uint64_t total_tcks = 0;
  std::uint64_t generation_tcks = 0;
  std::uint64_t observation_tcks = 0;
};

/// One campaign unit's deterministic cost summary — the slice of a
/// core::UnitOutcome the slowest-units table needs. Kept as a neutral
/// struct so obs stays below core in the layering (core adapts its
/// results into this; see scenario::render_profile).
struct ProfileUnit {
  std::string name;
  std::uint64_t total_tcks = 0;
  std::uint64_t generation_tcks = 0;
  std::uint64_t observation_tcks = 0;
  bool failed = false;
};

struct ProfileOptions {
  std::size_t top_k = 5;  ///< slowest-unit list length
  /// TCK period used to convert TCK budgets into estimated wall time —
  /// the same knob the tracer stamps t_ps with.
  std::uint64_t tck_period_ps = 10'000;
};

/// Render the post-run profile of a merged campaign: unit and TCK totals
/// from `totals`, TCK/wall-time split by phase (generation vs
/// observation) and by TAP state, sessions by kind, per-TapOp latency
/// summaries (count / mean / p50 / p95 from the op.tcks histogram), the
/// top-k slowest of `units` by TCK count (omitted when `units` is empty),
/// the bus waveform-store hit rate, and — when a final telemetry snapshot is
/// supplied — measured per-worker busy/idle utilization. Deterministic
/// for everything derived from `totals`, `units` and `merged`; only the
/// telemetry block carries wall-clock numbers.
std::string profile_report(const ProfileTotals& totals,
                           const std::vector<ProfileUnit>& units,
                           const Registry& merged,
                           const Snapshot* telemetry = nullptr,
                           const ProfileOptions& opt = {});

}  // namespace jsi::obs

#endif  // JSI_OBS_PROFILE_HPP
