// e2e_anatomy — the compiled half of the full-MD-step benchmark; run.py
// drives all three commands:
//
//   e2e_anatomy gen --seed N --out DIR
//       Seeded inputs as LAMMPS data files: jittered FCC copper (864 and
//       16,384 atoms), the 864-atom copper in a box stretched 2x along x
//       (a vacuum slab), and water (1,536 atoms). The jitter matters: a
//       perfect lattice has zero net force by symmetry and barely moves.
//   e2e_anatomy trace --data F --model F --system copper|water --steps N
//                     --spans OUT [--path fused|mixed]
//                     [--transport shm|tcp --rank K --world N
//                      --rendezvous R --rebuild-every K]
//       One traced run, built the way `dpmd run` builds it. Spans (name,
//       start, end, parent, rank) are recorded in memory around calls into
//       each layer's public functions and written to OUT at exit, with the
//       kernel-probe records and the driver's own counters.
//   e2e_anatomy triad
//       STREAM-triad bandwidth of the host over three 512 MiB arrays.
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/cost.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/team.hpp"
#include "dp/descriptor.hpp"
#include "dp/env_mat.hpp"
#include "dp/prod_force.hpp"
#include "fused/fused_model.hpp"
#include "fused/mixed_model.hpp"
#include "md/integrator.hpp"
#include "md/lammps_io.hpp"
#include "md/lattice.hpp"
#include "md/simulation.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "parallel/distributed_md.hpp"
#include "parallel/transport.hpp"
#include "tab/tabulated_model.hpp"

namespace {

using dp::core::DPModel;
using dp::core::ModelConfig;

// Run settings `dpmd run` uses when its flags are left at their defaults.
constexpr double kSkin = 1.0;         // --skin [A]
constexpr double kTemperature = 330.0;  // --temp [K]
constexpr double kInterval = 0.01;    // --interval (table step)
// Kernel probes fire every kProbeEvery steps (or once at the last step of a
// shorter run), so they cost ~10% extra work and stay outside step spans.
constexpr int kProbeEvery = 10;

// ---- arguments -------------------------------------------------------------

/// `--key value` pairs; every key must be one the command knows, so a
/// misspelled flag fails instead of silently changing the run.
class Args {
 public:
  Args(int argc, char** argv, const std::set<std::string>& known) {
    for (int i = 2; i < argc; i += 2) {
      const std::string key = argv[i];
      DP_CHECK_MSG(key.rfind("--", 0) == 0 && known.count(key.substr(2)) == 1,
                   "unknown option " << key);
      DP_CHECK_MSG(i + 1 < argc, "option " << key << " needs a value");
      opts_[key.substr(2)] = argv[i + 1];
    }
  }
  bool has(const std::string& key) const { return opts_.count(key) == 1; }
  std::string get(const std::string& key) const {
    const auto it = opts_.find(key);
    DP_CHECK_MSG(it != opts_.end(), "missing --" << key);
    return it->second;
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    return has(key) ? get(key) : fallback;
  }
  int get_int(const std::string& key) const { return std::stoi(get(key)); }

 private:
  std::map<std::string, std::string> opts_;
};

// ---- spans -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/// Seconds since process start (steady clock; spans of one rank share it).
double now() { return std::chrono::duration<double>(Clock::now() - kEpoch).count(); }

struct Span {
  const char* name;
  double start;
  double end;
  int parent;  ///< index of the parent span, -1 for a root
};

/// In-memory span recorder of one process (= one rank).
class SpanLog {
 public:
  /// Opens a span whose parent is the innermost span still open.
  int open(const char* name) {
    spans_.push_back({name, now(), 0.0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now();
    open_ = s.parent;
  }
  /// Records a finished span and adopts every root span recorded at index
  /// `first` or later as its child.
  void add_parent(const char* name, double start, double end, std::size_t first) {
    const int id = static_cast<int>(spans_.size());
    for (std::size_t k = first; k < spans_.size(); ++k)
      if (spans_[k].parent < 0) spans_[k].parent = id;
    spans_.push_back({name, start, end, -1});
  }
  std::size_t size() const { return spans_.size(); }
  const Span& at(std::size_t k) const { return spans_[k]; }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

// ---- force-field decorator -------------------------------------------------

/// Arguments of one ForceField::compute call. The pointers refer to the
/// driver's live state; probes read them right after the step that made the
/// call, before the driver's next step can change or free that state.
struct ForceCall {
  const dp::md::Box* box;
  const dp::md::Atoms* atoms;
  const dp::md::NeighborList* nlist;
  bool periodic;
};

/// What the decorator records; owned by the harness, so it outlives the
/// per-rank force field the distributed driver destroys at its end.
struct ForceTrace {
  SpanLog& log;
  std::vector<std::size_t> spans;  ///< index of every force.compute span
  std::vector<ForceCall> calls;    ///< calls of the current step
  std::size_t centers = 0;         ///< centers over all calls
  double energy = 0.0;             ///< energy returned by the last call
};

/// Wraps the production force field and records a `force.compute` span per
/// call; everything else is forwarded unchanged.
class TimedForceField final : public dp::md::ForceField {
 public:
  TimedForceField(std::unique_ptr<dp::md::ForceField> inner, ForceTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  dp::md::ForceResult compute(const dp::md::Box& box, dp::md::Atoms& atoms,
                              const dp::md::NeighborList& nlist, bool periodic) override {
    const int id = trace_.log.open("force.compute");
    const dp::md::ForceResult r = inner_->compute(box, atoms, nlist, periodic);
    trace_.log.close(id);
    trace_.spans.push_back(static_cast<std::size_t>(id));
    trace_.calls.push_back({&box, &atoms, &nlist, periodic});
    trace_.centers += nlist.n_centers();
    trace_.energy = r.energy;
    return r;
  }
  double cutoff() const override { return inner_->cutoff(); }
  std::uint64_t extrapolations() const override { return inner_->extrapolations(); }
  std::size_t neighbor_reservation() const override { return inner_->neighbor_reservation(); }

 private:
  std::unique_ptr<dp::md::ForceField> inner_;
  ForceTrace& trace_;
};

// ---- kernel probes ---------------------------------------------------------

struct ProbeRecord {
  int step = 0;
  std::size_t centers = 0;
  std::size_t env_bytes = 0;      ///< EnvMat::compact_bytes(), summed over calls
  std::size_t filled_slots = 0;
  std::size_t reserved_slots = 0;  ///< centers x N_m (the dense reservation)
  double prod_bytes = 0.0;         ///< computed bytes the scatter reads + writes
  double neighbor_s = 0.0, env_s = 0.0, fit_s = 0.0, prod_s = 0.0;
};

struct FitScratch {
  std::vector<double> a_mat, g_a;
  dp::core::AtomKernelScratch scratch;
};

/// Re-runs each layer's public kernel on the live state of the step that
/// just ended, into probe-owned buffers (the trajectory is never touched):
/// NeighborList::build, core::build_env_mat, core::descriptor_fit_atom over
/// all centers (synthetic A matrix) and core::prod_force_virial (synthetic
/// g_rmat of the env matrix's shape).
class Prober {
 public:
  explicit Prober(const DPModel& model)
      : model_(model),
        nl_(model.config().rcut, kSkin),
        fit_(static_cast<std::size_t>(std::max(1, omp_get_max_threads()))) {
    const std::size_t m = model.config().m();
    for (FitScratch& sc : fit_) {
      sc.a_mat.resize(4 * m);
      sc.g_a.resize(4 * m);
      for (std::size_t k = 0; k < sc.a_mat.size(); ++k)
        sc.a_mat[k] = 1e-2 * std::sin(0.1 * static_cast<double>(k));
    }
  }

  void run(int step, const std::vector<ForceCall>& calls, SpanLog& log) {
    DP_CHECK(!calls.empty());
    ProbeRecord rec;
    if (records.empty()) {
      // The force field's own buffers are warm by now: warm the probe's
      // (first-touch faults of a DRAM-sized env matrix) in a pass whose
      // record is dropped.
      measure(calls, rec, log, "probe.warmup");
      rec = ProbeRecord{};
    }
    rec.step = step;
    measure(calls, rec, log, "probe");
    records.push_back(rec);
  }

  std::vector<ProbeRecord> records;

 private:
  void measure(const std::vector<ForceCall>& calls, ProbeRecord& rec, SpanLog& log,
               const char* name) {
    const ModelConfig& cfg = model_.config();
    env_.resize(calls.size());
    const int probe = log.open(name);

    // One neighbor build over all centers of the step: the calls evaluate
    // consecutive centers of the first call's atom array (a distributed rank
    // orders its locals interior-first, then boundary, then ghosts).
    for (const ForceCall& c : calls) rec.centers += c.nlist->n_centers();
    int id = log.open("probe.neighbor_build");
    nl_.build(*calls[0].box, calls[0].atoms->pos, rec.centers, calls[0].periodic);
    log.close(id);
    rec.neighbor_s = duration(log, id);

    id = log.open("probe.env_mat");
    for (std::size_t k = 0; k < calls.size(); ++k)
      dp::core::build_env_mat(cfg, *calls[k].box, *calls[k].atoms, *calls[k].nlist, env_[k],
                              env_ws_, dp::core::EnvMatKernel::Optimized, calls[k].periodic);
    log.close(id);
    rec.env_s = duration(log, id);
    for (const dp::core::EnvMat& e : env_) {
      rec.env_bytes += e.compact_bytes();
      rec.filled_slots += e.filled_slots();
      rec.reserved_slots += e.n_atoms * static_cast<std::size_t>(cfg.nm());
    }

    id = log.open("probe.fit");
    for (const ForceCall& c : calls) fit_all(c);
    log.close(id);
    rec.fit_s = duration(log, id);

    std::size_t max_slots = 0;
    for (const dp::core::EnvMat& e : env_) max_slots = std::max(max_slots, e.stored_slots());
    g_rmat_.assign(max_slots * 4, 1e-3);
    id = log.open("probe.prod_force");
    for (std::size_t k = 0; k < calls.size(); ++k) {
      const std::size_t slots = env_[k].stored_slots();
      forces_.assign(calls[k].atoms->size(), dp::Vec3{});
      dp::Mat3 virial{};
      dp::core::prod_force_virial(env_[k], g_rmat_.data(), *calls[k].box, *calls[k].atoms,
                                  calls[k].periodic, forces_, virial, prod_ws_);
      // g_rmat (4), deriv (12) and diff (3) doubles plus slot_atom per slot
      // read; one force triple per atom written.
      rec.prod_bytes += static_cast<double>(slots) * (19.0 * sizeof(double) + sizeof(int)) +
                        static_cast<double>(forces_.size()) * sizeof(dp::Vec3);
    }
    log.close(id);
    rec.prod_s = duration(log, id);
    log.close(probe);
  }

  static double duration(const SpanLog& log, int id) {
    const Span& s = log.at(static_cast<std::size_t>(id));
    return s.end - s.start;
  }

  /// descriptor_fit_atom for every center of one call, split over the same
  /// thread team and chunking the fused kernel uses.
  void fit_all(const ForceCall& c) {
    const ModelConfig& cfg = model_.config();
    const std::size_t n = c.nlist->n_centers();
    const double scale = 1.0 / static_cast<double>(cfg.nm());
    auto body = [&](int tid, int T) {
      FitScratch& sc = fit_[static_cast<std::size_t>(tid)];
      for (std::size_t i = dp::chunk_bound(n, tid, T); i < dp::chunk_bound(n, tid + 1, T); ++i)
        dp::core::descriptor_fit_atom(model_.fitting(c.atoms->type[i]), sc.a_mat.data(),
                                      cfg.m(), cfg.axis_neuron, scale, sc.scratch,
                                      sc.g_a.data());
    };
    dp::BuildTeam::team().run(static_cast<int>(fit_.size()), dp::BodyRef(body));
  }

  const DPModel& model_;
  dp::md::NeighborList nl_;
  std::vector<FitScratch> fit_;  ///< one per thread of the team
  std::vector<dp::core::EnvMat> env_;
  dp::core::EnvMatWorkspace env_ws_;
  dp::core::ProdForceWorkspace prod_ws_;
  dp::AlignedVector<double> g_rmat_;
  std::vector<dp::Vec3> forces_;
};

// ---- output ----------------------------------------------------------------

using Facts = std::vector<std::pair<std::string, double>>;

void write_trace(const std::string& path, int rank, const Facts& facts,
                 const std::vector<ProbeRecord>& probes, const SpanLog& log) {
  using dp::obs::json_number;
  using dp::obs::json_string;
  std::ofstream os(path);
  DP_CHECK_MSG(os.is_open(), "cannot write " << path);
  os << "{\"rank\": " << rank << ", \"simd\": ";
  json_string(os, dp::simd::name(dp::simd::active()));
  os << ",\n \"facts\": {";
  for (std::size_t k = 0; k < facts.size(); ++k) {
    os << (k ? ", " : "");
    json_string(os, facts[k].first);
    os << ": ";
    json_number(os, facts[k].second);
  }
  os << "},\n \"probes\": [";
  for (std::size_t k = 0; k < probes.size(); ++k) {
    const ProbeRecord& p = probes[k];
    os << (k ? ",\n  " : "\n  ") << "{\"step\": " << p.step << ", \"centers\": " << p.centers
       << ", \"env_bytes\": " << p.env_bytes << ", \"filled_slots\": " << p.filled_slots
       << ", \"reserved_slots\": " << p.reserved_slots << ", \"prod_bytes\": ";
    json_number(os, p.prod_bytes);
    os << ", \"neighbor_s\": ";
    json_number(os, p.neighbor_s);
    os << ", \"env_s\": ";
    json_number(os, p.env_s);
    os << ", \"fit_s\": ";
    json_number(os, p.fit_s);
    os << ", \"prod_s\": ";
    json_number(os, p.prod_s);
    os << "}";
  }
  os << "],\n \"spans\": [";
  for (std::size_t k = 0; k < log.size(); ++k) {
    const Span& s = log.at(k);
    os << (k ? ",\n  " : "\n  ") << "{\"name\": ";
    json_string(os, s.name);
    os << ", \"start\": ";
    json_number(os, s.start);
    os << ", \"end\": ";
    json_number(os, s.end);
    os << ", \"parent\": " << s.parent << ", \"rank\": " << rank << "}";
  }
  os << "]}\n";
  DP_CHECK_MSG(os.good(), "write failed: " << path);
}

// ---- commands --------------------------------------------------------------

int cmd_gen(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(std::stoull(args.get("seed")));
  const std::string dir = args.get("out");
  constexpr double kJitter = 0.08;  // [A]
  constexpr double kLattice = 3.634, kMassCu = 63.546;
  const dp::md::Configuration cu = dp::md::make_fcc(6, 6, 6, kLattice, kMassCu, kJitter, seed);
  dp::md::write_lammps_data(dir + "/cu_864.data", cu);
  dp::md::write_lammps_data(dir + "/cu_16384.data",
                            dp::md::make_fcc(16, 16, 16, kLattice, kMassCu, kJitter, seed));
  dp::md::Configuration slab = cu;
  const dp::Vec3 L = cu.box.lengths();
  slab.box = dp::md::Box(2.0 * L.x, L.y, L.z);
  dp::md::write_lammps_data(dir + "/cu_slab.data", slab);
  dp::md::write_lammps_data(dir + "/water_1536.data", dp::md::make_water(2, 2, 2, seed));
  return 0;
}

int cmd_trace(const Args& args) {
  SpanLog log;
  ForceTrace trace{log, {}, {}, 0, 0.0};
  const int setup = log.open("setup");
  const DPModel model = DPModel::load(args.get("model"));
  const dp::md::Configuration sys = dp::md::read_lammps_data(args.get("data"));
  const bool water = args.get("system") == "water";
  const dp::tab::TabulatedDP tab(
      model, {0.0, dp::tab::TabulatedDP::s_max(model.config(), water ? 0.8 : 1.8), kInterval});
  dp::md::SimulationConfig sc;
  sc.steps = args.get_int("steps");
  sc.dt = (water ? 0.5 : 1.0) * 1e-3;
  sc.temperature = kTemperature;
  sc.skin = kSkin;
  const int probe_every = std::min(kProbeEvery, sc.steps);
  const auto probe_due = [&](int step) { return probe_every > 0 && step % probe_every == 0; };
  Prober prober(model);
  Facts facts;
  // Bytes of the tables the step walks (the mixed path walks its own
  // reduced-precision copies).
  std::size_t table_bytes = tab.total_bytes();
  int rank = 0;

  if (!args.has("transport")) {
    std::unique_ptr<dp::md::ForceField> inner;
    const std::string path = args.get("path", "fused");
    if (path == "mixed") {
      auto mixed = std::make_unique<dp::fused::MixedFusedDP>(tab);
      table_bytes = mixed->table_bytes();
      inner = std::move(mixed);
    } else {
      DP_CHECK_MSG(path == "fused", "unknown --path " << path);
      inner = std::make_unique<dp::fused::FusedDP>(tab);
    }
    TimedForceField ff(std::move(inner), trace);
    dp::md::Simulation md(sys, ff, sc);
    log.close(setup);
    facts.emplace_back("e0", dp::md::kinetic_energy(md.configuration().atoms) + trace.energy);
    for (int step = 1; step <= sc.steps; ++step) {
      trace.calls.clear();
      const int id = log.open("md.step");
      md.step();
      log.close(id);
      if (probe_due(step)) prober.run(step, trace.calls, log);
    }
    facts.emplace_back(
        "rebuilds",
        static_cast<double>(
            dp::obs::MetricsRegistry::instance().counter("md.neighbor_rebuilds").value()));
  } else {
    dp::par::TransportConfig tcfg = dp::par::transport_config_from_env();
    tcfg.kind = dp::par::parse_transport_kind(args.get("transport"));
    tcfg.rank = args.get_int("rank");
    tcfg.world = args.get_int("world");
    tcfg.rendezvous = args.get("rendezvous");
    sc.rebuild_every = args.get_int("rebuild-every");
    // Thermo output every step, so on_sample timestamps every step's end.
    sc.thermo_every = 1;
    dp::par::ProcessGroup pg(tcfg);
    rank = pg.rank();
    log.close(setup);

    double cursor = 0.0;
    std::size_t first_child = 0;
    dp::par::DistributedOptions dopts;
    dopts.on_sample = [&](int, int step) {
      const double end = now();
      if (step == 1) {
        // The initial force evaluation makes the same calls as a step, so
        // half of the calls so far are its own: step 1 starts when the last
        // of them returned.
        const std::size_t per_eval = trace.spans.size() / 2;
        DP_CHECK(per_eval > 0);
        cursor = log.at(trace.spans[per_eval - 1]).end;
        first_child = trace.spans[per_eval];
        trace.calls.erase(trace.calls.begin(),
                          trace.calls.begin() + static_cast<std::ptrdiff_t>(per_eval));
      }
      log.add_parent("md.step", cursor, end, first_child);
      if (probe_due(step)) prober.run(step, trace.calls, log);
      trace.calls.clear();
      first_child = log.size();
      cursor = now();
    };
    const auto factory = [&]() -> std::unique_ptr<dp::md::ForceField> {
      return std::make_unique<TimedForceField>(std::make_unique<dp::fused::FusedDP>(tab),
                                               trace);
    };
    const dp::par::DistributedRunResult result =
        dp::par::run_distributed_md_rank(pg.comm(), sys, factory, sc, dopts);
    DP_CHECK(!result.thermo.empty());
    facts.emplace_back("e0", result.thermo.front().total());
    if (rank == 0) {
      // Fleet-wide values (the driver reduces them over ranks).
      facts.insert(facts.end(),
                   {{"rebuilds", static_cast<double>(result.neighbor_rebuilds)},
                    {"halo_wait_s", result.halo_wait_seconds},
                    {"halo_hidden_s", result.halo_hidden_seconds},
                    {"load_imbalance", result.load_imbalance},
                    {"max_ghost_atoms", static_cast<double>(result.max_ghost_atoms)}});
    }
  }
  facts.insert(facts.end(),
               {{"table_bytes", static_cast<double>(table_bytes)},
                {"force_centers", static_cast<double>(trace.centers)},
                {"flops", dp::CostRegistry::instance().get("fused.descriptor").flops}});
  write_trace(args.get("spans"), rank, facts, prober.records, log);
  return 0;
}

int cmd_triad() {
  // Each array is >= 4x the last-level cache of the hosts this runs on, so
  // the loop streams from DRAM; run.py reports both sizes.
  constexpr std::size_t kArrayBytes = std::size_t{512} << 20;
  constexpr std::size_t n = kArrayBytes / sizeof(double);
  constexpr int kRepeats = 5;
  const auto a = std::make_unique_for_overwrite<double[]>(n);
  const auto b = std::make_unique_for_overwrite<double[]>(n);
  const auto c = std::make_unique_for_overwrite<double[]>(n);
  const int team_size = std::max(1, omp_get_max_threads());
  dp::BuildTeam& team = dp::BuildTeam::team();
  auto init = [&](int t, int T) {
    for (std::size_t i = dp::chunk_bound(n, t, T); i < dp::chunk_bound(n, t + 1, T); ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  };
  team.run(team_size, dp::BodyRef(init));
  const double s = 3.0;
  auto triad = [&](int t, int T) {
    for (std::size_t i = dp::chunk_bound(n, t, T); i < dp::chunk_bound(n, t + 1, T); ++i)
      a[i] = b[i] + s * c[i];
  };
  double best = 1e30;
  for (int r = 0; r < kRepeats; ++r) {
    const double t0 = now();
    team.run(team_size, dp::BodyRef(triad));
    best = std::min(best, now() - t0);
  }
  DP_CHECK(a[n / 2] == 7.0);
  const long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf("{\"triad_gbs\": %.6f, \"array_mib\": %zu, \"llc_mib\": %.3f, \"threads\": %d}\n",
              3.0 * static_cast<double>(kArrayBytes) / best / 1e9, kArrayBytes >> 20,
              static_cast<double>(std::max(llc, 0L)) / (1 << 20), team_size);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc >= 2 ? argv[1] : "";
    if (cmd == "gen") return cmd_gen(Args(argc, argv, {"seed", "out"}));
    if (cmd == "trace")
      return cmd_trace(Args(argc, argv,
                            {"data", "model", "system", "steps", "spans", "path", "transport",
                             "rank", "world", "rendezvous", "rebuild-every"}));
    if (cmd == "triad") return cmd_triad();
    std::fprintf(stderr, "usage: e2e_anatomy gen|trace|triad [--option value ...]\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_anatomy: %s\n", e.what());
    return 1;
  }
}
