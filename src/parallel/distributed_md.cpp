#include "parallel/distributed_md.hpp"

#include <algorithm>
#include <cmath>

#include "common/thread_annotations.hpp"
#include "dp/env_mat.hpp"
#include "md/integrator.hpp"
#include "md/thermostat.hpp"
#include "md/units.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/minimpi.hpp"

namespace dp::par {

namespace {

/// Tag base for the state gather to rank 0. Stays below the transport
/// layer's reserved collective space (Transport::kCollectiveTag) and above
/// every per-step tag family (halo 0-5/200+/400+/800+, migrate 600+,
/// broadcast/gatherv 1<<20).
constexpr int kGatherTagBase = 1 << 22;

/// Hot-path metric handles, resolved once (the registry keeps objects alive
/// for the life of the process; clear() only resets values). Rank 0 alone
/// counts, so each world event is counted once on every transport.
struct StepMetrics {
  obs::Counter& steps = obs::MetricsRegistry::instance().counter("md.steps");
  obs::Counter& rebuilds = obs::MetricsRegistry::instance().counter("md.neighbor_rebuilds");
  obs::Counter& early_rebuilds = obs::MetricsRegistry::instance().counter("md.early_rebuilds");
  obs::Counter& force_evals = obs::MetricsRegistry::instance().counter("md.force_evals");
  obs::Histogram& step_seconds = obs::MetricsRegistry::instance().histogram("md.step_seconds");
  static StepMetrics& get() {
    static StepMetrics m;
    return m;
  }
};

Decomp place(const md::Configuration& global, double halo, const DistributedOptions& opts,
             int nranks) {
  std::array<int, 3> grid = opts.grid;
  if (grid[0] == 0) grid = Decomp::choose_grid(global.box, nranks);
  // Count-equalized slabs, placed once from the initial positions.
  Decomp decomp(global.box, grid, global.atoms.pos, halo);
  DP_CHECK_MSG(decomp.nranks() == nranks, "grid does not match rank count");
  return decomp;
}

}  // namespace

DistributedMd::DistributedMd(Communicator& comm, const md::Configuration& global,
                             md::ForceField& ff, const md::SimulationConfig& sim,
                             const DistributedOptions& opts)
    : comm_(comm),
      ff_(ff),
      sim_(sim),
      opts_(opts),
      decomp_(place(global, ff.cutoff() + sim.skin, opts, comm.size())),
      halo_(decomp_, comm.rank(), ff.cutoff() + sim.skin),
      nlist_(ff.cutoff(), sim.skin) {
  const int rank = comm_.rank();
  md::Configuration init = global;
  init.atoms.validate();
  if (opts_.init_velocities) md::init_velocities(init.atoms, sim_.temperature, sim_.seed);
  n_global_ = init.atoms.size();
  types_ = init.atoms.type;
  // Rank threads map to trace "processes": one swim-lane group per rank.
  obs::TraceCollector::set_thread_rank(rank);

  // Per-rank black box + watchdogs. Only rank 0's monitor emits into the
  // JSONL sink (all ranks observe identical globally reduced signals, so
  // one stream carries each transition exactly once).
  if (opts_.flight_recorder) {
    obs::install_crash_handlers();
    flight_.emplace(rank);
    flight_->set_output_dir(opts_.flight_dir.c_str());
    flight_->register_for_crash_dump();
  }
  if (opts_.health != nullptr)
    health_.emplace(*opts_.health, rank == 0 ? &obs::MetricsRegistry::instance() : nullptr);
  if (sim_.thermostat != nullptr) thermostat_ = sim_.thermostat->for_rank(rank);

  // Take ownership of this rank's atoms (ids track the global index).
  atoms_.mass_by_type = init.atoms.mass_by_type;
  for (std::size_t a = 0; a < n_global_; ++a) {
    if (decomp_.owner_of(init.atoms.pos[a]) != rank) continue;
    atoms_.add(init.box.wrap(init.atoms.pos[a]), init.atoms.type[a]);
    atoms_.vel.back() = init.atoms.vel[a];
    ids_.push_back(static_cast<std::int64_t>(a));
  }
  n_local_ = atoms_.size();
  rebuild();
  evaluate_forces();
}

DistributedMd::~DistributedMd() { ff_.set_ghost_forward({}); }

void DistributedMd::rebuild() {
  atoms_.resize(n_local_);  // drop ghosts
  {
    // Migration + ghost exchange are communication, not list building:
    // keep them under md.halo so the per-phase breakdown separates
    // compute from exchange (halo.* subsections nest inside).
    ScopedTimer t("md.halo", "halo");
    WallTimer phase;
    migrate(comm_, decomp_.box(), decomp_, comm_.rank(), atoms_, &ids_, sim_.rebuild_every);
    n_local_ = atoms_.size();
    halo_.exchange_ghosts(comm_, atoms_);
    phase_comm_ += phase.seconds();
  }
  {
    ScopedTimer t("md.neighbor", "md");
    WallTimer phase;
    nlist_.build(decomp_.box(), atoms_.pos, n_local_, /*periodic=*/false);
    phase_neighbor_ += phase.seconds();
  }
  max_local_ = std::max(max_local_, n_local_);
  max_ghost_ = std::max(max_ghost_, halo_.n_ghost());
}

// One force evaluation per step: every local center against locals and
// ghosts, then the ghost-force reduction folds the ghost slots back onto
// their owners (the LAMMPS pair-style cycle). The forward pass is handed
// over on every call, so force fields shared between drivers stay bound to
// the one evaluating.
void DistributedMd::evaluate_forces() {
  ff_.set_ghost_forward([this](std::vector<double>& values) { halo_.forward(comm_, values); });
  {
    ScopedTimer t("md.force", "md");
    WallTimer phase;
    force_ = ff_.compute(decomp_.box(), atoms_, nlist_, /*periodic=*/false);
    phase_force_ += phase.seconds();
  }
  {
    ScopedTimer t("md.halo", "halo");
    WallTimer phase;
    halo_.reduce_forces(comm_, atoms_);
    phase_comm_ += phase.seconds();
  }
  ++force_evals_;
  if (comm_.rank() == 0) StepMetrics::get().force_evals.inc();
}

void DistributedMd::step() {
  StepMetrics& metrics = StepMetrics::get();
  const bool root = comm_.rank() == 0;
  obs::TraceSpan step_span("md.step", "md");
  WallTimer step_timer;
  phase_comm_ = phase_neighbor_ = phase_force_ = 0.0;
  {
    // Half-kick + drift on local atoms only (ghosts are re-derived).
    ScopedTimer t("md.integrate", "md");
    md::verlet_first_half(atoms_, sim_.dt, n_local_);
  }
  ++since_rebuild_;
  bool rebuild_now = since_rebuild_ >= sim_.rebuild_every;
  if (!rebuild_now) {
    // Skin/2 displacement criterion, checked on local atoms only (every
    // atom is local on exactly one rank, so the OR over ranks covers
    // ghosts) and OR-allreduced so all ranks rebuild in lockstep —
    // migration and ghost exchange are collective.
    const bool mine = nlist_.needs_rebuild(decomp_.box(), atoms_.pos, n_local_);
    if (comm_.allreduce_max(mine ? 1.0 : 0.0) > 0.5) {
      rebuild_now = true;
      ++early_rebuilds_;
      if (root) metrics.early_rebuilds.inc();
    }
  }
  if (rebuild_now) {
    rebuild();
    since_rebuild_ = 0;
    ++rebuilds_;
    if (root) metrics.rebuilds.inc();
  } else {
    // Membership is unchanged since the last rebuild: refresh the ghost
    // positions along the recorded plan.
    ScopedTimer t("md.halo", "halo");
    WallTimer phase;
    halo_.update_ghost_positions(comm_, atoms_);
    phase_comm_ += phase.seconds();
  }
  evaluate_forces();
  {
    ScopedTimer t("md.integrate", "md");
    md::verlet_second_half(atoms_, sim_.dt, n_local_);
  }
  if (thermostat_ || sim_.barostat != nullptr) couple();
  window_force_seconds_ += phase_force_;
  ++step_;
  const double step_secs = step_timer.seconds();
  if (root) {
    metrics.steps.inc();
    metrics.step_seconds.observe(step_secs);
  }
  if (flight_) {
    obs::FlightRecord r;
    r.step = step_;
    r.step_seconds = step_secs;
    r.force_seconds = phase_force_;
    r.neighbor_seconds = phase_neighbor_;
    r.comm_seconds = phase_comm_;
    r.health_bits = health_ ? health_->state_bits() : 0;
    r.rebuilds = static_cast<std::uint32_t>(rebuilds_);
    r.extrapolations = ff_.extrapolations();
    flight_->record(r);
  }
}

void DistributedMd::couple() {
  double mu = 1.0;
  {
    ScopedTimer t("md.thermostat", "md");
    if (thermostat_) {
      const double ke = comm_.allreduce_sum(md::kinetic_energy(atoms_, n_local_));
      thermostat_->couple(atoms_, n_local_, md::temperature(ke, n_global_), sim_.dt);
    }
    if (sim_.barostat != nullptr)
      mu = sim_.barostat->scale_factor(measure().pressure_bar, sim_.dt);
  }
  if (mu == 1.0) return;
  // Isotropic rescale of box, cut planes and positions by one factor, so
  // ownership is unchanged; the deformation invalidates ghosts and lists.
  decomp_.scale(mu);
  for (std::size_t a = 0; a < n_local_; ++a) atoms_.pos[a] *= mu;
  rebuild();
  since_rebuild_ = 0;
  ++rebuilds_;
  if (comm_.rank() == 0) StepMetrics::get().rebuilds.inc();
  evaluate_forces();
}

md::ThermoSample DistributedMd::measure() {
  // Local contributions -> one fused allreduce.
  std::vector<double> contrib(12, 0.0);
  contrib[0] = md::kinetic_energy(atoms_, n_local_);
  contrib[1] = force_.energy;
  contrib[2] = static_cast<double>(n_local_);
  for (std::size_t k = 0; k < 9; ++k) contrib[3 + k] = force_.virial.m[k];
  const auto total = comm_.allreduce_sum(contrib);
  md::ThermoSample s;
  s.step = step_;
  s.kinetic = total[0];
  s.potential = total[1];
  const double n_atoms = total[2];
  s.temperature = md::temperature(s.kinetic, n_global_);
  const double virial_trace = total[3] + total[7] + total[11];
  s.pressure_bar = (n_atoms * md::kBoltzmann * s.temperature + virial_trace / 3.0) /
                   decomp_.box().volume() * md::kEvPerA3ToBar;
  return s;
}

void DistributedMd::sample(const SampleHook& on_thermo) {
  {
    ScopedTimer timer("md.sample", "md");
    thermo_.push_back(measure());
    probe_health();
  }
  if (on_thermo) on_thermo(*this, thermo_.back());
}

// Fleet-level health probe, run right after each thermo sample — the one
// health cadence. Every rank reduces the same global signals and feeds its
// own monitor, so the watchdog automata advance identically everywhere; the
// trailing max-allreduce of the encoded worst state is the cross-rank
// agreement on how sick the run is.
void DistributedMd::probe_health() {
  if (!health_) return;
  obs::StepSignals sig;
  sig.step = step_;
  sig.n_atoms = static_cast<double>(n_global_);
  const md::ThermoSample& s = thermo_.back();
  sig.total_energy = s.total();
  sig.temperature = s.temperature;
  double f2 = 0.0;
  for (std::size_t a = 0; a < n_local_; ++a) f2 = std::max(f2, norm2(atoms_.force[a]));
  sig.max_force = comm_.allreduce_max(std::sqrt(f2));
  const double reservation = static_cast<double>(ff_.neighbor_reservation());
  if (reservation > 0.0) {
    sig.neighbor_occupancy =
        comm_.allreduce_max(static_cast<double>(nlist_.max_neighbors()) / reservation);
  }
  const auto sums = comm_.allreduce_sum(std::vector<double>{
      window_force_seconds_, static_cast<double>(ff_.extrapolations())});
  const double window_max = comm_.allreduce_max(window_force_seconds_);
  if (sums[0] > 0.0) sig.step_imbalance = window_max / (sums[0] / comm_.size());
  sig.extrapolations = sums[1];
  const obs::HealthState worst = health_->observe_step(sig);
  const double agreed =
      comm_.allreduce_max(static_cast<double>(obs::HealthMonitor::encode(worst)));
  worst_seen_ = std::max(worst_seen_, static_cast<int>(agreed));
  window_force_seconds_ = 0.0;
  if (comm_.rank() == 0) health_->publish_gauges(obs::MetricsRegistry::instance());
}

const std::vector<md::ThermoSample>& DistributedMd::run(const SampleHook& on_thermo) {
  thermo_.clear();
  sample(on_thermo);
  const int last = step_ + sim_.steps;
  for (int i = 0; i < sim_.steps; ++i) {
    step();
    if (step_ % sim_.thermo_every != 0 && step_ != last) continue;
    sample(on_thermo);
    // Bookkeeping a post-mortem can cross-check: the step counter and the
    // flight record (both in step()) and the synced metrics rewrite land
    // *before* the test-only injection hook, so a crash raised there finds
    // flightrec last_step equal to the logged md.steps. The barrier extends
    // that to every rank: no rank runs the hook (rank 0 may crash in it)
    // until each one has recorded this step.
    if (comm_.rank() == 0 && !opts_.metrics_rewrite_path.empty())
      obs::MetricsRegistry::instance().write_jsonl_file_sync(opts_.metrics_rewrite_path);
    if (opts_.on_sample) {
      comm_.barrier();
      opts_.on_sample(comm_.rank(), step_);
    }
  }
  return thermo_;
}

md::Configuration DistributedMd::gather() {
  // Each rank packs [id, pos, vel, force] per owned atom; rank 0 receives in
  // rank order and places them by global id.
  std::vector<double> packed;
  packed.reserve(10 * n_local_);
  for (std::size_t a = 0; a < n_local_; ++a) {
    packed.insert(packed.end(),
                  {static_cast<double>(ids_[a]), atoms_.pos[a].x, atoms_.pos[a].y,
                   atoms_.pos[a].z, atoms_.vel[a].x, atoms_.vel[a].y, atoms_.vel[a].z,
                   atoms_.force[a].x, atoms_.force[a].y, atoms_.force[a].z});
  }
  const int rank = comm_.rank();
  md::Configuration out;
  if (rank != 0) {
    // Buffered post: the transport owns the bytes once posted, so the
    // Request can be dropped without waiting (see minimpi.hpp).
    comm_.isend_vec(0, kGatherTagBase + rank, packed);
    return out;
  }
  out.box = decomp_.box();
  out.atoms.mass_by_type = atoms_.mass_by_type;
  out.atoms.resize(n_global_);
  out.atoms.type = types_;
  auto place = [&](const std::vector<double>& recs) {
    DP_CHECK(recs.size() % 10 == 0);
    for (std::size_t k = 0; k < recs.size(); k += 10) {
      const auto id = static_cast<std::size_t>(recs[k]);
      DP_CHECK(id < n_global_);
      out.atoms.pos[id] = out.box.wrap({recs[k + 1], recs[k + 2], recs[k + 3]});
      out.atoms.vel[id] = {recs[k + 4], recs[k + 5], recs[k + 6]};
      out.atoms.force[id] = {recs[k + 7], recs[k + 8], recs[k + 9]};
    }
  };
  place(packed);
  for (int r = 1; r < comm_.size(); ++r) {
    Request req = comm_.irecv(r, kGatherTagBase + r);
    place(req.take_vec<double>());
  }
  return out;
}

DistributedRunResult DistributedMd::finish() {
  const int nranks = comm_.size();
  const int rank = comm_.rank();
  DistributedRunResult result;
  const double max_local_global = comm_.allreduce_max(static_cast<double>(max_local_));
  const double max_ghost_global = comm_.allreduce_max(static_cast<double>(max_ghost_));
  const double mean_local = static_cast<double>(n_global_) / nranks;

  // Per-rank communication accounting, aggregated over minimpi reductions
  // so rank 0 can publish fleet-level gauges (mean/max expose imbalance).
  const double rank_bytes = static_cast<double>(halo_.bytes_sent());
  const double rank_wait = halo_.wait_seconds();
  const auto comm_sums = comm_.allreduce_sum(std::vector<double>{rank_bytes, rank_wait});
  const double bytes_max = comm_.allreduce_max(rank_bytes);
  const double wait_max = comm_.allreduce_max(rank_wait);
  // Steady-state neighbor workspace footprint: the parallel rebuild path
  // is allocation-free once warm, so the fleet-wide max is a meaningful
  // per-rank memory gauge (and a regression tripwire if it ever grows
  // with step count instead of plateauing).
  const double rank_nlist_bytes = static_cast<double>(nlist_.workspace_bytes());
  const double nlist_bytes_max = comm_.allreduce_max(rank_nlist_bytes);
  // Environment-matrix footprint of this rank's last build (thread-local,
  // so each rank reports its own): what the compact CSR costs vs what the
  // dense padded layout would — the Fig 3 memory-saving story per rank.
  const auto& env_stats = core::env_mat_thread_stats();
  const double rank_env_compact = static_cast<double>(env_stats.compact_bytes);
  const double rank_env_dense = static_cast<double>(env_stats.dense_bytes);
  const double env_compact_max = comm_.allreduce_max(rank_env_compact);
  const double env_dense_max = comm_.allreduce_max(rank_env_dense);
  const CommStats cs = comm_.stats();
  if (rank == 0) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.gauge("halo.bytes_per_rank_mean").set(comm_sums[0] / nranks);
    reg.gauge("halo.bytes_per_rank_max").set(bytes_max);
    reg.gauge("halo.wait_seconds_mean").set(comm_sums[1] / nranks);
    reg.gauge("halo.wait_seconds_max").set(wait_max);
    reg.gauge("neighbor.workspace_bytes_max").set(nlist_bytes_max);
    reg.gauge("env_mat.compact_bytes_max").set(env_compact_max);
    reg.gauge("env_mat.dense_bytes_max").set(env_dense_max);
    reg.gauge("md.load_imbalance").set(mean_local > 0 ? max_local_global / mean_local : 1.0);
    // Transport-layer counters (docs/OBSERVABILITY.md "comm.*"): for the
    // threads backend these are world totals, for shm/tcp this process's
    // rank — either way rank 0's view of its transport.
    reg.gauge("comm.messages").set(static_cast<double>(cs.messages));
    reg.gauge("comm.bytes").set(static_cast<double>(cs.bytes));
    reg.gauge("comm.barriers").set(static_cast<double>(cs.barriers));
    reg.gauge("comm.reductions").set(static_cast<double>(cs.reductions));
    reg.gauge("comm.posts_immediate").set(static_cast<double>(cs.posts_immediate));
    reg.gauge("comm.posts_deferred").set(static_cast<double>(cs.posts_deferred));
    reg.gauge("comm.wire_bytes").set(static_cast<double>(cs.wire_bytes));
  }

  // The registry serializes internally; no outer lock is needed even when
  // rank threads of one process record concurrently.
  obs::MetricsRegistry::instance().record_event(
      "rank", {{"rank", static_cast<double>(rank)},
               {"halo_bytes", rank_bytes},
               {"halo_messages", static_cast<double>(halo_.messages_sent())},
               {"halo_wait_seconds", rank_wait},
               {"neighbor_workspace_bytes", rank_nlist_bytes},
               {"env_compact_bytes", rank_env_compact},
               {"env_dense_bytes", rank_env_dense},
               {"local_atoms", static_cast<double>(n_local_)},
               {"ghost_atoms", static_cast<double>(halo_.n_ghost())}});

  result.thermo = thermo_;
  result.comm = cs;
  if (rank == 0) {
    result.max_local_atoms = static_cast<std::size_t>(max_local_global);
    result.max_ghost_atoms = static_cast<std::size_t>(max_ghost_global);
    result.load_imbalance = mean_local > 0 ? max_local_global / mean_local : 1.0;
    result.halo_wait_seconds = comm_sums[1];
    result.neighbor_rebuilds = rebuilds_;
    result.early_rebuilds = early_rebuilds_;
    result.force_evals = force_evals_;
    if (health_) result.health = health_->report();
    result.worst_health = worst_seen_;
  }
  result.wall_seconds = wall_.seconds();
  return result;
}

DistributedRunResult run_distributed_md_rank(Communicator& comm,
                                             const md::Configuration& global,
                                             const ForceFieldFactory& factory,
                                             const md::SimulationConfig& sim,
                                             const DistributedOptions& opts,
                                             const SampleHook& on_thermo) {
  const std::unique_ptr<md::ForceField> ff = factory();
  DistributedMd md(comm, global, *ff, sim, opts);
  md.run(on_thermo);
  return md.finish();
}

DistributedRunResult run_distributed_md(int nranks, const md::Configuration& global,
                                        const ForceFieldFactory& factory,
                                        const md::SimulationConfig& sim,
                                        const DistributedOptions& opts,
                                        const SampleHook& on_thermo) {
  DistributedRunResult result;
  // Guards rank 0's write of the result against the master thread's read
  // (run_parallel's join also orders it; the lock keeps the discipline
  // explicit and TSan-visible).
  Mutex result_mu;
  WallTimer wall;
  const CommStats world = run_parallel(nranks, [&](Communicator& comm) {
    DistributedRunResult r =
        run_distributed_md_rank(comm, global, factory, sim, opts, on_thermo);
    if (comm.rank() == 0) {
      MutexLock lock(result_mu);
      result = std::move(r);
    }
  });
  // World totals read after the join (every rank finished), matching the
  // historical semantics; the rank function's own snapshot is taken at
  // rank 0's last collective and may miss the tail of other ranks' sends.
  result.comm = world;
  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace dp::par
