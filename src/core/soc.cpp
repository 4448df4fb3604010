#include "core/soc.hpp"

#include <stdexcept>
#include <utility>

#include "si/model.hpp"

namespace jsi::core {

using util::BitVec;
using util::Logic;

si::BusParams effective_bus_params(const SocConfig& cfg) {
  si::BusParams bp = cfg.bus;
  bp.n_wires = cfg.n_wires;
  return bp;
}

SiSocDevice::SiSocDevice(SocConfig cfg)
    : SiSocDevice(std::move(cfg), static_cast<si::CoupledBus*>(nullptr)) {}

SiSocDevice::SiSocDevice(SocConfig cfg, si::CoupledBus& bus)
    : SiSocDevice(std::move(cfg), &bus) {}

SiSocDevice::SiSocDevice(SocConfig cfg, si::CoupledBus* external)
    : cfg_(std::move(cfg)) {
  if (cfg_.n_buses == 0) throw std::invalid_argument("need >= 1 bus");
  if (cfg_.n_wires < 2) throw std::invalid_argument("need >= 2 interconnects");
  if (external != nullptr) {
    si::require_width(*external, cfg_.n_wires);
    bus_ = external;
    // Keep config() truthful: the electrical parameters in force are the
    // external bus's, not whatever cfg.bus carried.
    cfg_.bus = external->params();
  } else {
    owned_bus_ = std::make_unique<si::CoupledBus>(effective_bus_params(cfg_));
    bus_ = owned_bus_.get();
  }
  // Detector supplies follow the swing the cells observe on the wire —
  // the full bus supply for rc_full_swing, the reduced swing for
  // low_swing — so threshold fractions track the actual waveform range.
  const double observed =
      si::model_for(cfg_.bus.model).observed_swing(cfg_.bus);
  cfg_.nd.vdd = observed;
  cfg_.sd.vdd = observed;
  // Buses 1..B-1 are clones of bus 0 taken before any per-bus defect is
  // injected: same width and electrics, and a warm bus 0 hands its
  // waveform store to every other bus.
  clones_.reserve(cfg_.n_buses - 1);
  for (std::size_t b = 1; b < cfg_.n_buses; ++b) {
    clones_.push_back(bus_->clone());
  }
  pins_.assign(cfg_.n_buses, BitVec(cfg_.n_wires, false));
  const std::size_t cells = cfg_.n_buses * cfg_.n_wires;

  tap_ = std::make_unique<jtag::TapDevice>("si_soc", cfg_.ir_width);
  tap_->add_idcode(cfg_.idcode, 0b0010);

  auto boundary = std::make_shared<jtag::BoundaryRegister>(
      [this] { return ctl_; });
  boundary_ = boundary.get();

  for (std::size_t i = 0; i < cells; ++i) {
    if (cfg_.enhanced) {
      auto cell = std::make_unique<bsc::Pgbsc>();
      pgbscs_.push_back(cell.get());
      boundary_->add_cell(std::move(cell));
    } else {
      auto cell = std::make_unique<bsc::StandardBsc>();
      sending_std_.push_back(cell.get());
      boundary_->add_cell(std::move(cell));
    }
  }
  for (std::size_t i = 0; i < cells; ++i) {
    auto cell = std::make_unique<bsc::Obsc>(cfg_.nd, cfg_.sd);
    obscs_.push_back(cell.get());
    boundary_->add_cell(std::move(cell));
  }
  for (std::size_t i = 0; i < cfg_.m_extra_cells; ++i) {
    boundary_->add_cell(std::make_unique<bsc::StandardBsc>());
  }

  tap_->add_data_register("BOUNDARY", boundary);
  tap_->add_instruction(kExtest, 0b0000, "BOUNDARY");
  tap_->add_instruction(kSample, 0b0001, "BOUNDARY");
  tap_->add_instruction(kGSitest, 0b1000, "BOUNDARY");
  tap_->add_instruction(kOSitest, 0b1001, "BOUNDARY");
  // CLAMP and HIGHZ select BYPASS between TDI and TDO (1149.1 §8.8/8.9);
  // the boundary keeps (or releases) the pins per the decode below.
  tap_->add_instruction(kClamp, 0b0100, "BYPASS");
  tap_->add_instruction(kHighz, 0b0101, "BYPASS");

  tap_->on_instruction([this](const std::string& name) {
    decode_instruction(name);
  });
  tap_->on_update_dr([this] { on_update_dr(); });
  tap_->on_reset([this] {
    ctl_ = jtag::CellCtl{};
    pins_valid_ = false;
    bus_transitions_ = 0;
    apply_bus(/*observe=*/false);
  });

  core_out_.assign(cells, Logic::L0);
  for (std::size_t i = 0; i < cells; ++i) {
    boundary_->cell(i).set_parallel_in(Logic::L0);
  }
  decode_instruction(tap_->current_instruction());
}

std::size_t SiSocDevice::chain_length() const {
  return 2 * cfg_.n_buses * cfg_.n_wires + cfg_.m_extra_cells;
}

void SiSocDevice::set_sink(obs::Sink* sink) {
  sink_ = sink;
  const std::size_t n = cfg_.n_wires;
  for (std::size_t b = 0; b < cfg_.n_buses; ++b) bus(b).set_sink(sink);
  for (std::size_t i = 0; i < obscs_.size(); ++i) {
    // A one-bus device keeps the bus-less detector id (b = -1).
    obscs_[i]->set_sink(sink, static_cast<std::int64_t>(i % n),
                        cfg_.n_buses == 1 ? -1
                                          : static_cast<std::int64_t>(i / n));
  }
}

bsc::Pgbsc& SiSocDevice::pgbsc(std::size_t i) {
  if (!cfg_.enhanced) throw std::logic_error("conventional SoC has no PGBSC");
  return *pgbscs_.at(i);
}

bsc::Obsc& SiSocDevice::obsc(std::size_t i) { return *obscs_.at(i); }

void SiSocDevice::set_core_output(std::size_t i, Logic v) {
  core_out_.at(i) = v;
  boundary_->cell(i).set_parallel_in(v);
  apply_bus(/*observe=*/ctl_.ce);
}

Logic SiSocDevice::core_input(std::size_t i) const {
  if (i >= obscs_.size()) throw std::out_of_range("bad wire");
  return boundary_->cell(obscs_.size() + i).parallel_out(ctl_);
}

BitVec SiSocDevice::nd_flags(std::size_t b) const {
  if (b >= cfg_.n_buses) throw std::out_of_range("bad bus");
  BitVec v(cfg_.n_wires, false);
  for (std::size_t w = 0; w < cfg_.n_wires; ++w) {
    v.set(w, obscs_[b * cfg_.n_wires + w]->nd().flag());
  }
  return v;
}

BitVec SiSocDevice::sd_flags(std::size_t b) const {
  if (b >= cfg_.n_buses) throw std::out_of_range("bad bus");
  BitVec v(cfg_.n_wires, false);
  for (std::size_t w = 0; w < cfg_.n_wires; ++w) {
    v.set(w, obscs_[b * cfg_.n_wires + w]->sd().flag());
  }
  return v;
}

bool SiSocDevice::boundary_selected() const {
  const std::string& inst = tap_->current_instruction();
  return inst == kExtest || inst == kSample || inst == kGSitest ||
         inst == kOSitest;
}

void SiSocDevice::decode_instruction(const std::string& name) {
  jtag::CellCtl c;
  highz_ = name == kHighz;
  if (name == kExtest || name == kClamp) {
    // CLAMP: pins stay driven from the update stages while the short
    // BYPASS path is selected for scanning.
    c = {.mode = true, .si = false, .ce = false, .gen = false, .nd_sd = true};
  } else if (name == kGSitest) {
    c = {.mode = true, .si = true, .ce = true, .gen = true, .nd_sd = true};
  } else if (name == kOSitest) {
    // ND/SD select initialized to ND for the first read-out pass.
    c = {.mode = true, .si = true, .ce = false, .gen = false, .nd_sd = true};
  } else {
    // SAMPLE/PRELOAD, IDCODE, BYPASS: functional pins.
    c = {.mode = false, .si = false, .ce = false, .gen = false, .nd_sd = true};
  }
  ctl_ = c;
  // Activating/deactivating a Mode instruction can retarget the pins
  // (functional values <-> update stage). This settling transition is not
  // part of the pattern set, so the sensors do not observe it (physically:
  // CE is asserted only after the pins are stable).
  apply_bus(/*observe=*/false);
}

void SiSocDevice::on_update_dr() {
  if (!boundary_selected()) return;
  if (tap_->current_instruction() == kOSitest) {
    // Complement ND/SD select so the next shift pass reads the other
    // sensor (paper §4.1, O-SITEST).
    ctl_.nd_sd = !ctl_.nd_sd;
  }
  apply_bus(/*observe=*/ctl_.ce);
}

void SiSocDevice::apply_bus(bool observe) {
  const std::size_t n = cfg_.n_wires;
  if (highz_) {
    // HIGHZ: all bus drivers float; the receivers see high impedance
    // until another instruction re-drives the wires.
    for (bsc::Obsc* cell : obscs_) cell->set_parallel_in(Logic::Z);
    pins_valid_ = false;
    return;
  }
  // First drive after reset: establish levels without a transition.
  const bool settle = !pins_valid_;
  pins_valid_ = true;
  for (std::size_t b = 0; b < cfg_.n_buses; ++b) {
    bsc::Obsc* const* obsc = obscs_.data() + b * n;
    // Compute the vector bus b's sending cells currently drive.
    BitVec next(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      next.set(i, util::to_bool(boundary_->cell(b * n + i).parallel_out(ctl_)));
    }
    if (settle) {
      for (std::size_t i = 0; i < n; ++i) {
        obsc[i]->set_parallel_in(util::to_logic(next[i]));
      }
      pins_[b] = std::move(next);
      continue;
    }
    if (next == pins_[b]) continue;

    const BitVec prev = std::exchange(pins_[b], std::move(next));
    const BitVec& cur = pins_[b];
    ++bus_transitions_;
    if (sink_) {
      obs::Event e;
      e.kind = obs::EventKind::BusTransition;
      e.tck = tap_->tck_count();
      e.name = "bus";
      e.a = static_cast<std::int64_t>(b);
      e.value = bus_transitions_;
      sink_->on_event(e);
    }
    // One batched lookup for the whole bus: every wire is served from the
    // bus's waveform store (MA windows prefilled, others solved on a miss)
    // and the sensors latch the store's per-slot verdicts, so a stored
    // waveform is scanned once per detector params, not per transition.
    si::CoupledBus& wires = bus(b);
    const si::TransitionBatch batch = wires.transition_batch(prev, cur);
    for (std::size_t i = 0; i < n; ++i) {
      if (observe) {
        obsc[i]->observe(wires, batch, i, util::to_logic(prev[i]),
                         util::to_logic(cur[i]), ctl_);
      }
      obsc[i]->set_parallel_in(wires.settled_logic(batch.wire(i)));
    }
  }
}

}  // namespace jsi::core
