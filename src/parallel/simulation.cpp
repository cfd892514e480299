#include "md/simulation.hpp"

#include "parallel/distributed_md.hpp"
#include "parallel/transport.hpp"

namespace dp::md {

Simulation::Simulation(Configuration cfg, ForceField& ff, SimulationConfig sim)
    : world_(std::make_unique<par::ProcessGroup>(par::TransportConfig{})),
      md_(std::make_unique<par::DistributedMd>(world_->comm(), cfg, ff, sim)) {}

Simulation::~Simulation() = default;

const Configuration& Simulation::configuration() const {
  if (!view_current_) {
    view_ = md_->gather();  // a one-rank world's gather: every atom, no ghost
    view_current_ = true;
  }
  return view_;
}

void Simulation::step() {
  md_->step();
  view_current_ = false;
}

const std::vector<ThermoSample>& Simulation::run() {
  const auto& trace = md_->run([this](par::DistributedMd&, const ThermoSample& s) {
    view_current_ = false;
    if (on_thermo) on_thermo(s.step, s);
  });
  view_current_ = false;
  return trace;
}

const std::vector<ThermoSample>& Simulation::thermo_trace() const { return md_->thermo(); }

int Simulation::current_step() const { return md_->current_step(); }

int Simulation::force_evaluations() const {
  return static_cast<int>(md_->force_evaluations());
}

const NeighborList& Simulation::neighbor_list() const { return md_->neighbor_list(); }

}  // namespace dp::md
