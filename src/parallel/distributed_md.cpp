#include "parallel/distributed_md.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/thread_annotations.hpp"
#include "common/timer.hpp"
#include "dp/env_mat.hpp"
#include "md/integrator.hpp"
#include "parallel/minimpi.hpp"
#include "md/units.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dp::par {

namespace {

/// Tag base for the end-of-run state gather to rank 0. Stays below the
/// transport layer's reserved collective space (Transport::kCollectiveTag)
/// and above every per-step tag family (halo 0-5/200+/400+, migrate 600+,
/// broadcast/gatherv 1<<20).
constexpr int kGatherTagBase = 1 << 22;

}  // namespace

DistributedRunResult run_distributed_md_rank(Communicator& comm,
                                             const md::Configuration& global,
                                             const ForceFieldFactory& factory,
                                             const md::SimulationConfig& sim,
                                             const DistributedOptions& opts) {
  const int nranks = comm.size();
  const int rank = comm.rank();
  DistributedRunResult result;

  // Every rank derives the identical initial state: validate + velocity
  // init are deterministic in sim.seed, so one-rank-per-process worlds need
  // no broadcast of the configuration.
  md::Configuration init = global;
  init.atoms.validate();
  if (opts.init_velocities) md::init_velocities(init.atoms, sim.temperature, sim.seed);

  std::array<int, 3> grid = opts.grid;
  if (grid[0] == 0) grid = Decomp::choose_grid(init.box, nranks);
  const std::size_t n_global = init.atoms.size();
  const double global_volume = init.box.volume();

  if (opts.flight_recorder) obs::install_crash_handlers();

  WallTimer wall;
  // Rank threads map to trace "processes": one swim-lane group per rank.
  obs::TraceCollector::set_thread_rank(rank);
  auto ff = factory();
  const double halo = ff->cutoff() + sim.skin;
  // Count-equalized slabs, placed once from the initial positions.
  const Decomp decomp(init.box, grid, init.atoms.pos, halo);
  DP_CHECK_MSG(decomp.nranks() == nranks, "grid does not match rank count");

  // Per-rank black box + watchdogs. Only rank 0's monitor emits into the
  // JSONL sink (all ranks observe identical globally reduced signals, so
  // one stream carries each transition exactly once).
  std::optional<obs::FlightRecorder> flight;
  if (opts.flight_recorder) {
    flight.emplace(rank);
    flight->set_output_dir(opts.flight_dir.c_str());
    flight->register_for_crash_dump();
  }
  std::optional<obs::HealthMonitor> health;
  if (opts.health != nullptr) {
    health.emplace(*opts.health,
                   rank == 0 ? &obs::MetricsRegistry::instance() : nullptr);
  }
  int worst_seen = 0;
  // Per-step phase accounting feeding the flight record (comm covers
  // migration, ghost exchange and force reduction).
  double phase_comm = 0.0, phase_neighbor = 0.0, phase_force = 0.0;
  // Force-evaluation seconds since the last sample — the imbalance probe
  // compares this window's max across ranks against its mean. Step time
  // would not do: it includes the blocking halo wait, which evens it out
  // across ranks however skewed the work is.
  double window_force_seconds = 0.0;

  // Take ownership of this rank's atoms (ids track the global index).
  md::Atoms atoms;
  atoms.mass_by_type = init.atoms.mass_by_type;
  std::vector<std::int64_t> ids;
  for (std::size_t a = 0; a < n_global; ++a) {
    if (decomp.owner_of(init.atoms.pos[a]) != rank) continue;
    atoms.add(init.box.wrap(init.atoms.pos[a]), init.atoms.type[a]);
    atoms.vel.back() = init.atoms.vel[a];
    ids.push_back(static_cast<std::int64_t>(a));
  }

  HaloExchange halo_ex(init.box, decomp, rank, halo);
  md::NeighborList nlist(ff->cutoff(), sim.skin);
  std::size_t n_local = atoms.size();
  std::size_t max_local = 0, max_ghost = 0;

  auto rebuild = [&] {
    atoms.resize(n_local);  // drop ghosts
    {
      // Migration + ghost exchange are communication, not list building:
      // keep them under md.halo so the per-phase breakdown separates
      // compute from exchange (halo.* subsections nest inside).
      ScopedTimer t("md.halo", "halo");
      WallTimer phase;
      migrate(comm, init.box, decomp, rank, atoms, &ids, sim.rebuild_every);
      n_local = atoms.size();
      halo_ex.exchange_ghosts(comm, atoms);
      phase_comm += phase.seconds();
    }
    {
      ScopedTimer t("md.neighbor", "md");
      WallTimer phase;
      nlist.build(init.box, atoms.pos, n_local, /*periodic=*/false);
      phase_neighbor += phase.seconds();
    }
    max_local = std::max(max_local, n_local);
    max_ghost = std::max(max_ghost, halo_ex.n_ghost());
  };

  // One force evaluation per step: every local center against locals and
  // ghosts, then the ghost-force reduction folds the ghost slots back onto
  // their owners (the LAMMPS pair-style cycle).
  md::ForceResult local_force;
  auto evaluate_forces = [&] {
    {
      ScopedTimer t("md.force", "md");
      WallTimer phase;
      local_force = ff->compute(init.box, atoms, nlist, /*periodic=*/false);
      phase_force += phase.seconds();
    }
    ScopedTimer t("md.halo", "halo");
    WallTimer phase;
    halo_ex.reduce_forces(comm, atoms);
    phase_comm += phase.seconds();
  };

  std::vector<md::ThermoSample> thermo;
  auto sample = [&](int step) {
    ScopedTimer timer("md.sample", "md");
    // Local contributions -> one fused allreduce.
    std::vector<double> contrib(12, 0.0);
    double ke = 0.0;
    for (std::size_t a = 0; a < n_local; ++a)
      ke += 0.5 * atoms.mass(a) * norm2(atoms.vel[a]);
    contrib[0] = ke * md::kMv2ToEv;
    contrib[1] = local_force.energy;
    contrib[2] = static_cast<double>(n_local);
    for (std::size_t k = 0; k < 9; ++k) contrib[3 + k] = local_force.virial.m[k];
    const auto total = comm.allreduce_sum(contrib);
    md::ThermoSample s;
    s.step = step;
    s.kinetic = total[0];
    s.potential = total[1];
    const double n_atoms = total[2];
    s.temperature = n_atoms > 1
                        ? 2.0 * s.kinetic / ((3.0 * n_atoms - 3.0) * md::kBoltzmann)
                        : 0.0;
    const double virial_trace = total[3] + total[7] + total[11];
    s.pressure_bar = (n_atoms * md::kBoltzmann * s.temperature + virial_trace / 3.0) /
                     global_volume * md::kEvPerA3ToBar;
    thermo.push_back(s);
  };

  // Fleet-level health probe, run right after each thermo sample. Every
  // rank reduces the same global signals and feeds its own monitor, so
  // the watchdog automata advance identically everywhere; the trailing
  // max-allreduce of the encoded worst state is the cross-rank agreement
  // on how sick the run is.
  const double reservation = static_cast<double>(ff->neighbor_reservation());
  auto health_probe = [&](int step) {
    if (!health) return;
    obs::StepSignals sig;
    sig.step = step;
    sig.n_atoms = static_cast<double>(n_global);
    const md::ThermoSample& s = thermo.back();
    sig.total_energy = s.total();
    sig.temperature = s.temperature;
    double f2 = 0.0;
    for (std::size_t a = 0; a < n_local; ++a)
      f2 = std::max(f2, norm2(atoms.force[a]));
    sig.max_force = comm.allreduce_max(std::sqrt(f2));
    if (reservation > 0.0) {
      sig.neighbor_occupancy = comm.allreduce_max(
          static_cast<double>(nlist.max_neighbors()) / reservation);
    }
    const auto sums = comm.allreduce_sum(std::vector<double>{
        window_force_seconds, static_cast<double>(ff->extrapolations())});
    const double window_max = comm.allreduce_max(window_force_seconds);
    if (sums[0] > 0.0) sig.step_imbalance = window_max / (sums[0] / nranks);
    sig.extrapolations = sums[1];
    const obs::HealthState worst = health->observe_step(sig);
    const double agreed = comm.allreduce_max(
        static_cast<double>(obs::HealthMonitor::encode(worst)));
    worst_seen = std::max(worst_seen, static_cast<int>(agreed));
    window_force_seconds = 0.0;
    if (rank == 0) health->publish_gauges(obs::MetricsRegistry::instance());
  };

  rebuild();
  evaluate_forces();
  sample(0);
  health_probe(0);

  int since_rebuild = 0;
  std::uint64_t rebuilds = 0, early_rebuilds = 0;
  obs::Counter& steps_counter = obs::MetricsRegistry::instance().counter("md.steps");
  obs::Counter& rebuilds_counter =
      obs::MetricsRegistry::instance().counter("md.neighbor_rebuilds");
  obs::Counter& early_counter =
      obs::MetricsRegistry::instance().counter("md.early_rebuilds");
  obs::Histogram& step_seconds =
      obs::MetricsRegistry::instance().histogram("md.step_seconds");
  for (int step = 1; step <= sim.steps; ++step) {
    obs::TraceSpan step_span("md.step", "md");
    WallTimer step_timer;
    phase_comm = phase_neighbor = phase_force = 0.0;
    {
      // Half-kick + drift on local atoms only (ghosts are re-derived).
      ScopedTimer t("md.integrate", "md");
      for (std::size_t a = 0; a < n_local; ++a) {
        const double sc = 0.5 * sim.dt * md::kForceToAccel / atoms.mass(a);
        atoms.vel[a] += atoms.force[a] * sc;
        atoms.pos[a] += atoms.vel[a] * sim.dt;
      }
    }
    ++since_rebuild;
    bool rebuild_now = since_rebuild >= sim.rebuild_every;
    if (!rebuild_now) {
      // Skin/2 displacement criterion, checked on local atoms only (every
      // atom is local on exactly one rank, so the OR over ranks covers
      // ghosts) and OR-allreduced so all ranks rebuild in lockstep —
      // migration and ghost exchange are collective.
      const bool mine = nlist.needs_rebuild(init.box, atoms.pos, n_local);
      if (comm.allreduce_max(mine ? 1.0 : 0.0) > 0.5) {
        rebuild_now = true;
        ++early_rebuilds;
        early_counter.inc();
      }
    }
    if (rebuild_now) {
      rebuild();
      since_rebuild = 0;
      ++rebuilds;
      rebuilds_counter.inc();
    } else {
      // Membership is unchanged since the last rebuild: refresh the ghost
      // positions along the recorded plan.
      ScopedTimer t("md.halo", "halo");
      WallTimer phase;
      halo_ex.update_ghost_positions(comm, atoms);
      phase_comm += phase.seconds();
    }
    evaluate_forces();
    {
      ScopedTimer t("md.integrate", "md");
      for (std::size_t a = 0; a < n_local; ++a) {
        const double sc = 0.5 * sim.dt * md::kForceToAccel / atoms.mass(a);
        atoms.vel[a] += atoms.force[a] * sc;
      }
    }
    window_force_seconds += phase_force;
    const bool sampled = step % sim.thermo_every == 0 || step == sim.steps;
    if (sampled) {
      sample(step);
      health_probe(step);
    }
    if (rank == 0) steps_counter.inc();
    const double step_secs = step_timer.seconds();
    step_seconds.observe(step_secs);
    if (flight) {
      obs::FlightRecord r;
      r.step = step;
      r.step_seconds = step_secs;
      r.force_seconds = phase_force;
      r.neighbor_seconds = phase_neighbor;
      r.comm_seconds = phase_comm;
      r.health_bits = health ? health->state_bits() : 0;
      r.rebuilds = static_cast<std::uint32_t>(rebuilds);
      r.extrapolations = ff->extrapolations();
      flight->record(r);
    }
    if (sampled) {
      // Bookkeeping a post-mortem can cross-check: the step counter and
      // the synced metrics rewrite land *before* the test-only injection
      // hook, so a crash raised there finds flightrec last_step equal to
      // the logged md.steps. The barrier extends that to every rank: no
      // rank runs the hook (rank 0 may crash in it) until each one has
      // recorded this step.
      if (rank == 0 && !opts.metrics_rewrite_path.empty()) {
        obs::MetricsRegistry::instance().write_jsonl_file_sync(
            opts.metrics_rewrite_path);
      }
      if (opts.on_sample) {
        comm.barrier();
        opts.on_sample(rank, step);
      }
    }
  }

  const double max_local_global = comm.allreduce_max(static_cast<double>(max_local));
  const double max_ghost_global = comm.allreduce_max(static_cast<double>(max_ghost));
  const double mean_local = static_cast<double>(n_global) / nranks;

  // Per-rank communication accounting, aggregated over minimpi reductions
  // so rank 0 can publish fleet-level gauges (mean/max expose imbalance).
  const double rank_bytes = static_cast<double>(halo_ex.bytes_sent());
  const double rank_wait = halo_ex.wait_seconds();
  const auto comm_sums = comm.allreduce_sum(std::vector<double>{rank_bytes, rank_wait});
  const double bytes_max = comm.allreduce_max(rank_bytes);
  const double wait_max = comm.allreduce_max(rank_wait);
  // Steady-state neighbor workspace footprint: the parallel rebuild path
  // is allocation-free once warm, so the fleet-wide max is a meaningful
  // per-rank memory gauge (and a regression tripwire if it ever grows
  // with step count instead of plateauing).
  const double rank_nlist_bytes = static_cast<double>(nlist.workspace_bytes());
  const double nlist_bytes_max = comm.allreduce_max(rank_nlist_bytes);
  // Environment-matrix footprint of this rank's last build (thread-local,
  // so each rank reports its own): what the compact CSR costs vs what the
  // dense padded layout would — the Fig 3 memory-saving story per rank.
  const auto& env_stats = core::env_mat_thread_stats();
  const double rank_env_compact = static_cast<double>(env_stats.compact_bytes);
  const double rank_env_dense = static_cast<double>(env_stats.dense_bytes);
  const double env_compact_max = comm.allreduce_max(rank_env_compact);
  const double env_dense_max = comm.allreduce_max(rank_env_dense);
  const CommStats cs = comm.stats();
  if (rank == 0) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.gauge("halo.bytes_per_rank_mean").set(comm_sums[0] / nranks);
    reg.gauge("halo.bytes_per_rank_max").set(bytes_max);
    reg.gauge("halo.wait_seconds_mean").set(comm_sums[1] / nranks);
    reg.gauge("halo.wait_seconds_max").set(wait_max);
    reg.gauge("neighbor.workspace_bytes_max").set(nlist_bytes_max);
    reg.gauge("env_mat.compact_bytes_max").set(env_compact_max);
    reg.gauge("env_mat.dense_bytes_max").set(env_dense_max);
    reg.gauge("md.load_imbalance")
        .set(mean_local > 0 ? max_local_global / mean_local : 1.0);
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
               {"halo_messages", static_cast<double>(halo_ex.messages_sent())},
               {"halo_wait_seconds", rank_wait},
               {"neighbor_workspace_bytes", rank_nlist_bytes},
               {"env_compact_bytes", rank_env_compact},
               {"env_dense_bytes", rank_env_dense},
               {"local_atoms", static_cast<double>(n_local)},
               {"ghost_atoms", static_cast<double>(halo_ex.n_ghost())}});

  result.thermo = thermo;
  result.comm = cs;
  if (rank == 0) {
    result.max_local_atoms = static_cast<std::size_t>(max_local_global);
    result.max_ghost_atoms = static_cast<std::size_t>(max_ghost_global);
    result.load_imbalance = mean_local > 0 ? max_local_global / mean_local : 1.0;
    result.halo_wait_seconds = comm_sums[1];
    result.neighbor_rebuilds = rebuilds;
    result.early_rebuilds = early_rebuilds;
    if (health) result.health = health->report();
    result.worst_health = worst_seen;
  }

  if (opts.gather_state) {
    // State gather over the communicator itself (works over every backend,
    // unlike shared arrays): each rank packs [id, pos, vel, force] per
    // atom; rank 0 receives in rank order and scatters by global id.
    if (rank == 0) {
      result.final_pos.resize(n_global);
      result.final_vel.resize(n_global);
      result.final_force.resize(n_global);
      auto place = [&](const double* rec) {
        const auto id = static_cast<std::size_t>(rec[0]);
        DP_CHECK(id < n_global);
        result.final_pos[id] = {rec[1], rec[2], rec[3]};
        result.final_vel[id] = {rec[4], rec[5], rec[6]};
        result.final_force[id] = {rec[7], rec[8], rec[9]};
      };
      for (std::size_t a = 0; a < n_local; ++a) {
        const double rec[10] = {static_cast<double>(ids[a]),
                                atoms.pos[a].x,   atoms.pos[a].y,   atoms.pos[a].z,
                                atoms.vel[a].x,   atoms.vel[a].y,   atoms.vel[a].z,
                                atoms.force[a].x, atoms.force[a].y, atoms.force[a].z};
        place(rec);
      }
      for (int r = 1; r < nranks; ++r) {
        Request req = comm.irecv(r, kGatherTagBase + r);
        const auto packed = req.take_vec<double>();
        DP_CHECK(packed.size() % 10 == 0);
        for (std::size_t k = 0; k < packed.size() / 10; ++k) place(packed.data() + 10 * k);
      }
    } else {
      std::vector<double> packed;
      packed.reserve(10 * n_local);
      for (std::size_t a = 0; a < n_local; ++a) {
        packed.insert(packed.end(),
                      {static_cast<double>(ids[a]),
                       atoms.pos[a].x,   atoms.pos[a].y,   atoms.pos[a].z,
                       atoms.vel[a].x,   atoms.vel[a].y,   atoms.vel[a].z,
                       atoms.force[a].x, atoms.force[a].y, atoms.force[a].z});
      }
      // Buffered post: the transport owns the bytes once posted, so the
      // Request can be dropped without waiting (see minimpi.hpp).
      comm.isend_vec(0, kGatherTagBase + rank, packed);
    }
  }

  result.wall_seconds = wall.seconds();
  return result;
}

DistributedRunResult run_distributed_md(int nranks, const md::Configuration& global,
                                        const ForceFieldFactory& factory,
                                        const md::SimulationConfig& sim,
                                        const DistributedOptions& opts) {
  DistributedRunResult result;
  // Guards rank 0's write of the result against the master thread's read
  // (run_parallel's join also orders it; the lock keeps the discipline
  // explicit and TSan-visible).
  Mutex result_mu;
  WallTimer wall;
  const CommStats world = run_parallel(nranks, [&](Communicator& comm) {
    DistributedRunResult r = run_distributed_md_rank(comm, global, factory, sim, opts);
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
