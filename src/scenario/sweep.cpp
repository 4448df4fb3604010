#include "scenario/sweep.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "mafm/fault.hpp"
#include "scenario/build.hpp"
#include "si/model.hpp"
#include "sim/time.hpp"
#include "util/prng.hpp"

namespace jsi::scenario {

namespace {

/// The canned SoC session a sweep's session template runs.
core::SocSession soc_session(SessionKind kind) {
  switch (kind) {
    case SessionKind::Enhanced: return core::SocSession::Enhanced;
    case SessionKind::Parallel: return core::SocSession::Parallel;
    case SessionKind::Conventional: return core::SocSession::Conventional;
    case SessionKind::Bist: return core::SocSession::Bist;
    case SessionKind::MultiBus:
    case SessionKind::Extest:
      break;
  }
  // Unreachable: the parser rejects sweep on non-soc topologies.
  throw std::logic_error("sweep: unsupported session kind");
}

void apply_variation(si::BusParams& p, const VariationSpec& var,
                     double factor) {
  // Deep-tail draws must not produce a zero or negative electrical.
  if (factor < 0.05) factor = 0.05;
  if (var.param == "vdd") {
    p.vdd *= factor;
  } else if (var.param == "r_driver") {
    p.r_driver *= factor;
  } else if (var.param == "r_wire") {
    p.r_wire *= factor;
  } else if (var.param == "c_ground") {
    p.c_ground *= factor;
  } else if (var.param == "c_couple") {
    p.c_couple *= factor;
  } else if (var.param == "l_wire") {
    p.l_wire *= factor;
  } else if (var.param == "swing_frac") {
    // low_swing bias-network variation. Clamp into the model's valid
    // range so a deep-tail draw can't make BusModel construction throw:
    // the swing stays <= 1 and keeps 25% headroom over the converter Vt.
    p.swing_frac *= factor;
    if (p.swing_frac > 1.0) p.swing_frac = 1.0;
    const double floor = p.receiver_vt_frac * 1.25;
    if (p.swing_frac < floor) p.swing_frac = floor;
  } else {
    throw std::logic_error("unvalidated variation parameter");
  }
}

/// Book one scored die under "sweep" and its grid point `prefix`.
/// `flags` is the die's per-wire ND|SD readout; a die with any flag set
/// is the violation the yield curve counts.
void book_truth(obs::Registry& reg, const std::string& prefix,
                const GroundTruth& truth, const util::BitVec& flags) {
  const bool bad = truth.bad();
  const bool flagged = flags.popcount() > 0;
  std::uint64_t tp = 0, fp = 0, fn = 0, tn = 0;
  for (std::size_t w = 0; w < flags.size(); ++w) {
    const bool truth_w = truth.noisy[w] || truth.skewed[w];
    tp += truth_w && flags[w];
    fp += !truth_w && flags[w];
    fn += truth_w && !flags[w];
    tn += !truth_w && !flags[w];
  }
  const std::pair<const char*, std::uint64_t> books[] = {
      {".bad", bad},          {".escapes", bad && !flagged},
      {".overkill", flagged && !bad},
      {".wire_tp", tp},       {".wire_fp", fp},
      {".wire_fn", fn},       {".wire_tn", tn},
  };
  for (const auto& [name, count] : books) {
    if (count == 0) continue;
    reg.counter(std::string("sweep") + name).inc(count);
    reg.counter(prefix + name).inc(count);
  }
}

}  // namespace

GroundTruth evaluate_truth(const si::CoupledBus& bus, const TruthSpec& spec) {
  const std::size_t n = bus.n();
  const si::InterconnectModel& model = si::model_for(bus.params().model);
  const double high = model.high_rail(bus.params());
  const double threshold = model.settled_threshold(bus.params());
  const double max_glitch = spec.max_glitch_frac * high;
  const sim::Time max_settle =
      static_cast<sim::Time>(spec.max_settle_ps) * sim::kPs;

  GroundTruth truth{util::BitVec(n, false), util::BitVec(n, false)};
  for (std::size_t w = 0; w < n; ++w) {
    // Worst quiet-wire stress: both glitch polarities on both rails.
    for (const auto f : {mafm::MaFault::Pg, mafm::MaFault::PgBar,
                         mafm::MaFault::Ng, mafm::MaFault::NgBar}) {
      const mafm::VectorPair p = mafm::vectors_for(f, n, w);
      const si::WaveformView wf = bus.peek(w, p.v1, p.v2);
      const double rail = p.v1[w] ? high : 0.0;
      const double excursion =
          std::max(wf.max_value() - rail, rail - wf.min_value());
      if (excursion >= max_glitch) truth.noisy.set(w, true);
    }
    // Worst switching stress: Miller-doubled rising and falling edges.
    for (const auto f : {mafm::MaFault::Rs, mafm::MaFault::Fs}) {
      const mafm::VectorPair p = mafm::vectors_for(f, n, w);
      const std::optional<sim::Time> t =
          bus.peek(w, p.v1, p.v2).last_crossing(threshold);
      if (!t.has_value() || *t > max_settle) truth.skewed.set(w, true);
    }
  }
  return truth;
}

SweepUnitSource::SweepUnitSource(const ScenarioSpec& spec) {
  if (!spec.sweep) {
    throw SpecError("sweep", "this scenario has no sweep section");
  }
  sweep_ = *spec.sweep;
  topo_ = spec.topology;
  base_ = soc_config(spec);
  seed_ = spec.campaign.seed;

  // Shared (every-die) defects resolve once from the campaign seed, in
  // the same scenario-then-session order build_campaign uses, so a
  // seeded sweep places its systematic defects exactly like the
  // non-sweep lowering would.
  const SessionSpec& session = spec.sessions.at(0);
  util::Prng rng(seed_);
  shared_ = resolve_defects(spec.defects, topo_, rng);
  {
    std::vector<DefectSpec> own = resolve_defects(session.defects, topo_, rng);
    shared_.insert(shared_.end(), own.begin(), own.end());
  }

  session_ = soc_session(session.kind);
  method_ = observation_method(session);
  guard_ = session.guard;
  name_prefix_ = session.name.empty()
                     ? std::string(session_kind_name(session.kind))
                     : session.name;

  // Row-major grid: the ND axis is the outer loop. An empty axis
  // contributes one point that leaves the topology default in force.
  const std::size_t nd_n = sweep_.nd_vhthr_frac.empty()
                               ? 1
                               : sweep_.nd_vhthr_frac.size();
  const std::size_t sd_n =
      sweep_.sd_budget_ps.empty() ? 1 : sweep_.sd_budget_ps.size();
  grid_.reserve(nd_n * sd_n);
  for (std::size_t a = 0; a < nd_n; ++a) {
    for (std::size_t b = 0; b < sd_n; ++b) {
      GridPoint g;
      g.id = grid_.size();
      if (!sweep_.nd_vhthr_frac.empty()) {
        g.nd_vhthr_frac = sweep_.nd_vhthr_frac[a];
      }
      if (!sweep_.sd_budget_ps.empty()) {
        g.sd_budget_ps = sweep_.sd_budget_ps[b];
      }
      grid_.push_back(g);
    }
  }
}

std::size_t SweepUnitSource::count() const {
  return grid_.size() * sweep_.samples;
}

std::string SweepUnitSource::grid_prefix(std::size_t gid) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "sweep.grid.g%04zu", gid);
  return std::string(buf);
}

core::SocConfig SweepUnitSource::unit_config(std::size_t index) const {
  const GridPoint& g = grid_[index / sweep_.samples];
  core::SocConfig cfg = base_;
  cfg.enhanced = session_ != core::SocSession::Conventional;
  if (g.nd_vhthr_frac) {
    cfg.nd.v_hthr_frac = *g.nd_vhthr_frac;
    // The release threshold tracks 0.10 below the arming threshold —
    // the pairing the yield bench established.
    cfg.nd.v_hmin_frac = *g.nd_vhthr_frac - 0.10;
  }
  if (g.sd_budget_ps) {
    cfg.sd.skew_budget = static_cast<sim::Time>(*g.sd_budget_ps) * sim::kPs;
  }
  // All sampled randomness of unit `index` comes from split(index):
  // variation factors first, then defect placement, in spec order.
  util::Prng rng = util::Prng(seed_).split(index);
  for (const VariationSpec& var : sweep_.variations) {
    apply_variation(cfg.bus, var, 1.0 + var.sigma * rng.next_normal());
  }
  return cfg;
}

std::vector<DefectSpec> SweepUnitSource::unit_defects(std::size_t index) const {
  util::Prng rng = util::Prng(seed_).split(index);
  // Replay (discard) the variation draws so defect placement consumes
  // the same stream positions it does inside unit_config + unit().
  for (const VariationSpec& var : sweep_.variations) {
    (void)var;
    (void)rng.next_normal();
  }
  std::vector<DefectSpec> defs = shared_;
  std::vector<DefectSpec> own = resolve_defects(sweep_.defects, topo_, rng);
  defs.insert(defs.end(), own.begin(), own.end());
  return defs;
}

core::CampaignUnit SweepUnitSource::unit(std::size_t index) const {
  const std::size_t gid = index / sweep_.samples;
  const std::size_t sample = index % sweep_.samples;

  core::SocConfig cfg = unit_config(index);
  std::vector<DefectSpec> defs = unit_defects(index);

  core::CampaignUnit u;
  {
    std::ostringstream os;
    os << name_prefix_ << "_g" << gid << "_s" << sample;
    u.name = os.str();
  }
  u.run = [cfg = std::move(cfg), defs = std::move(defs), session = session_,
           method = method_, guard = guard_, truth_spec = sweep_.truth,
           gid](core::CampaignContext& ctx) {
    // Population books first: a die that fails mid-session still counts
    // as a unit of its grid point (the failure books below and in the
    // campaign aggregate).
    obs::Registry& reg = ctx.hub().registry();
    const std::string prefix = grid_prefix(gid);
    reg.counter("sweep.units").inc();
    reg.counter(prefix + ".units").inc();

    // With a truth spec the die scores its own bus once the session is
    // done: the store already holds every MA window the scan reads.
    core::SessionReview review;
    if (truth_spec) {
      review = [&reg, &prefix, &truth_spec](const si::CoupledBus& bus,
                                            const util::BitVec& nd,
                                            const util::BitVec& sd) {
        book_truth(reg, prefix, evaluate_truth(bus, *truth_spec), nd | sd);
      };
    }

    core::UnitOutcome o;
    try {
      // The canned session on a bus from the campaign factory: the warm
      // clone path requires exact `si::same_params` equality (incl. model
      // kind), so a process-varied die pays a fresh build and never
      // inherits the base die's memoized waveforms.
      o = core::run_soc_session(
          ctx, cfg, session, method, guard,
          [&defs](si::CoupledBus& bus) {
            for (const DefectSpec& d : defs) apply_defect(bus, d);
          },
          review);
    } catch (...) {
      reg.counter("sweep.failures").inc();
      reg.counter(prefix + ".failures").inc();
      throw;  // the runner books the failed outcome
    }

    if (o.violation) {
      reg.counter("sweep.violations").inc();
      reg.counter(prefix + ".violations").inc();
    }
    reg.histogram("sweep.unit_tcks")
        .observe(static_cast<double>(o.total_tcks));
    return o;
  };
  return u;
}

}  // namespace jsi::scenario
