// dpmd — command-line front end, the stand-in for DeePMD-kit's `dp` tool
// plus the LAMMPS driver script:
//
//   dpmd init --system water|copper --out model.dpm [--seed N] [--demo]
//   dpmd info --model model.dpm
//   dpmd compress --model model.dpm [--interval H] [--rmin R]
//   dpmd run --model model.dpm --system water|copper [--cells N] [--steps N]
//            [--path baseline|tabulated|fused|mixed] [--dt FS] [--temp K]
//            [--rebuild-every N] [--ranks N] [--interval H]
//            [--thermostat none|langevin|berendsen|nose-hoover]
//            [--pressure BAR] [--dump traj.xyz] [--thermo thermo.csv]
//            [--trace out.trace.json] [--metrics out.metrics.jsonl]
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/cost.hpp"
#include "common/timer.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "dp/baseline_model.hpp"
#include "fused/fused_model.hpp"
#include "fused/mixed_model.hpp"
#include "fused/se_r_model.hpp"
#include "md/checkpoint.hpp"
#include "md/dump.hpp"
#include "md/lammps_io.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/distributed_md.hpp"
#include "parallel/transport.hpp"
#include "perf/cost_model.hpp"
#include "tab/compressed_model.hpp"
#include "tab/model_io.hpp"
#include "train/distributed_trainer.hpp"
#include "train/trainer.hpp"

namespace {

using dp::core::DPModel;
using dp::core::ModelConfig;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> order;  ///< option names as given on the command line

  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  double get_double(const std::string& key, double fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : std::stod(it->second);
  }
  int get_int(const std::string& key, int fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : std::stoi(it->second);
  }
  bool has(const std::string& key) const { return options.count(key) > 0; }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw dp::Error("expected --option, got " + key);
    key = key.substr(2);
    if (const auto eq = key.find('='); eq != std::string::npos) {
      // --key=value spelling
      args.order.push_back(key.substr(0, eq));
      args.options[args.order.back()] = key.substr(eq + 1);
      continue;
    }
    args.order.push_back(key);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      // Assign through a std::string temporary: string::operator=(const
      // char*) trips GCC 12's -Wrestrict false positive (PR105329) once
      // inlined into main, and this file builds with -Werror.
      args.options[key] = std::string(argv[++i]);
    } else {
      args.options[key] = std::string("1");  // boolean flag
    }
  }
  return args;
}

/// Refuses the first option on the command line that the command does not
/// read, so a misspelt or retired flag stops the run instead of being
/// silently ignored.
void accept_only(const Args& args, std::initializer_list<std::string_view> known) {
  for (const std::string& key : args.order)
    if (std::find(known.begin(), known.end(), key) == known.end())
      throw dp::Error("unknown option --" + key + " for 'dpmd " + args.command + "'");
}

ModelConfig config_for(const std::string& system, bool demo, const std::string& descriptor) {
  ModelConfig cfg;
  if (system == "water") {
    cfg = ModelConfig::water();
    if (demo) {
      cfg.rcut = 5.0;  // fits a single 192-atom cell
      cfg.sel = {30, 62};
    }
  } else if (system == "copper") {
    cfg = ModelConfig::copper();
  } else {
    throw dp::Error("unknown --system '" + system + "' (water|copper)");
  }
  if (demo) {
    cfg.embed_widths = {16, 32, 64};
    cfg.fit_widths = {64, 64, 64};
    cfg.axis_neuron = 8;
  }
  if (descriptor == "se_r")
    cfg.descriptor = dp::core::DescriptorKind::SeR;
  else if (descriptor != "se_a")
    throw dp::Error("unknown --descriptor '" + descriptor + "' (se_a|se_r)");
  return cfg;
}

dp::md::Configuration system_for(const std::string& system, int cells) {
  if (system == "water") return dp::md::make_water(cells, cells, cells);
  return dp::md::make_fcc(6 * cells, 6 * cells, 6 * cells);
}

// ---- observability wiring (--trace / --metrics) ---------------------------

struct ObsOutputs {
  std::string trace_path;
  std::string metrics_path;
};

// ---- fatal-path plumbing (--health / --flight-recorder) -------------------
//
// DP_CHECK failures route through one handler: dp::set_fatal_hook ->
// obs::notify_fatal (stderr message + flight-recorder dump + metrics
// fsync), and only then does the check throw as before. The flush hook may
// run inside a signal handler, so the metrics path lives in a fixed buffer
// and the hook sticks to open/fsync/close.

char g_metrics_sync_path[512] = {0};

DP_SIGNAL_SAFE void fsync_metrics_hook() noexcept {
  if (g_metrics_sync_path[0] == '\0') return;
  const int fd = ::open(g_metrics_sync_path, O_WRONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

void fatal_bridge(const char* msg) noexcept { dp::obs::notify_fatal(msg); }

void print_health_summary(const dp::obs::HealthReport& report) {
  std::printf("\nrun health: %s\n", dp::obs::to_string(report.worst()));
  std::printf("  %-28s %-6s %12s %12s %12s %6s\n", "watchdog", "state", "value",
              "warn", "fatal", "trips");
  for (const auto& e : report.entries) {
    std::printf("  %-28s %-6s %12.4g %12.4g %12.4g %6llu\n", e.name.c_str(),
                dp::obs::to_string(e.state), e.value, e.warn, e.fatal,
                static_cast<unsigned long long>(e.transitions));
  }
}

/// Writes the gathered final forces, indexed by global atom id, as %a hex
/// floats — the exact bit pattern, so the cross-transport parity tests can
/// diff the files for bitwise agreement.
void write_force_dump(const std::string& path, const std::vector<dp::Vec3>& force) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw dp::Error("cannot write force dump to " + path);
  for (std::size_t i = 0; i < force.size(); ++i)
    std::fprintf(f, "%zu %a %a %a\n", i, force[i].x, force[i].y, force[i].z);
  std::fclose(f);
  std::printf("force dump (%zu atoms) written to %s\n", force.size(), path.c_str());
}

/// Reads the output flags and turns on trace collection if requested (must
/// happen before the instrumented code runs — spans check the flag live).
ObsOutputs setup_observability(const Args& args) {
  ObsOutputs out{args.get("trace"), args.get("metrics")};
  if (!out.trace_path.empty()) dp::obs::TraceCollector::instance().set_enabled(true);
  return out;
}

void write_observability(const ObsOutputs& out) {
  if (!out.trace_path.empty()) {
    if (dp::obs::TraceCollector::instance().write_chrome_trace_file(out.trace_path))
      std::printf("trace written to %s (load in chrome://tracing or Perfetto)\n",
                  out.trace_path.c_str());
    else
      std::fprintf(stderr, "dpmd: could not write trace to %s\n", out.trace_path.c_str());
  }
  if (!out.metrics_path.empty()) {
    if (dp::obs::MetricsRegistry::instance().write_jsonl_file(out.metrics_path))
      std::printf("metrics written to %s\n", out.metrics_path.c_str());
    else
      std::fprintf(stderr, "dpmd: could not write metrics to %s\n",
                   out.metrics_path.c_str());
  }
}

using SectionTimes = std::map<std::string, dp::TimerStats>;

/// The step phases of the one step loop, in the order the tables print them.
constexpr const char* kPhases[] = {"md.force",     "md.neighbor",   "md.halo",
                                   "md.integrate", "md.thermostat", "md.sample"};

/// Sections and costs recorded since `base` (a snapshot of the same
/// registry): what the timed steps alone spent.
SectionTimes timers_since(const SectionTimes& base) {
  SectionTimes out = dp::TimerRegistry::instance().snapshot();
  for (auto& [name, st] : out) {
    const auto it = base.find(name);
    if (it == base.end()) continue;
    st.total_seconds -= it->second.total_seconds;
    st.calls -= it->second.calls;
  }
  return out;
}
dp::KernelCost cost_since(const std::map<std::string, dp::KernelCost>& base,
                          const std::string& name) {
  dp::KernelCost c = dp::CostRegistry::instance().get(name);
  const auto it = base.find(name);
  if (it != base.end()) c += it->second * -1.0;
  return c;
}

/// The setup line: what ran before the step-0 sample (construction, the
/// first neighbor build and force evaluation), kept out of the tables.
void print_setup_line(const SectionTimes& setup) {
  std::printf("\nsetup before step 1 (not in the tables below):");
  for (const char* name : kPhases) {
    const auto it = setup.find(name);
    if (it != setup.end())
      std::printf(" %s %.3f s", name, it->second.total_seconds);
  }
  std::printf("\n");
}

/// End-of-run table: each step phase's share of the measured wall time of
/// the timed steps. With in-process ranks the phase totals accumulate
/// across all rank threads, so the budget is wall * nranks.
void print_step_breakdown(double wall_seconds, int nranks, const SectionTimes& timed) {
  if (wall_seconds <= 0.0) return;
  const double budget = wall_seconds * std::max(nranks, 1);
  std::printf("\nstep-phase breakdown (%.3f s wall%s):\n", wall_seconds,
              nranks > 1 ? ", summed over ranks" : "");
  std::printf("  %-14s %10s %9s %7s\n", "phase", "seconds", "calls", "share");
  double covered = 0.0;
  for (const char* name : kPhases) {
    const auto it = timed.find(name);
    if (it == timed.end()) continue;
    covered += it->second.total_seconds;
    std::printf("  %-14s %10.3f %9llu %6.1f%%\n", name, it->second.total_seconds,
                static_cast<unsigned long long>(it->second.calls),
                100.0 * it->second.total_seconds / budget);
  }
  std::printf("  %-14s %10.3f %9s %6.1f%%\n", "total", covered, "",
              100.0 * covered / budget);
}

/// Measured force-kernel sections of the timed steps, next to the analytic
/// cost model's per-atom FLOP counts (perf/cost_model) where the path has
/// one — the roofline sanity check the paper's Sec 5 tables make at machine
/// scale. The mixed and se_r paths print measured rows only.
void print_cost_model_table(const std::string& path, const DPModel& model,
                            std::size_t n_atoms, double volume, std::uint64_t evals,
                            const SectionTimes& timed) {
  if (evals == 0 || n_atoms == 0) return;
  struct Row {
    const char* label;
    dp::KernelCost modeled;
    std::vector<std::string> sections;
  };
  std::vector<Row> rows;
  const bool modeled = path == "baseline" || path == "tabulated" || path == "fused";
  if (modeled) {
    dp::perf::WorkloadSpec w;
    w.config = model.config();
    w.density = volume > 0.0 ? static_cast<double>(n_atoms) / volume : 0.1;
    constexpr double kPi = 3.14159265358979323846;
    w.real_neighbors =
        w.density * (4.0 / 3.0) * kPi * w.config.rcut * w.config.rcut * w.config.rcut;
    const auto ppath = path == "baseline"    ? dp::perf::Path::Baseline
                       : path == "tabulated" ? dp::perf::Path::Tabulated
                                             : dp::perf::Path::Fused;
    const auto costs = dp::perf::per_atom_costs(w, ppath);
    if (path == "fused") {
      rows = {{"env_mat", costs.env_mat, {"fused.env_mat"}},
              {"descriptor", costs.embedding + costs.descriptor_fit, {"fused.descriptor"}},
              {"prod_force", costs.prod_force, {"fused.prod_force"}},
              {"total", costs.total(), {}}};
    } else if (path == "tabulated") {
      rows = {{"env_mat", costs.env_mat, {"compressed.env_mat"}},
              {"embedding", costs.embedding, {"compressed.tabulation"}},
              {"descriptor_fit", costs.descriptor_fit, {"compressed.descriptor_fit"}},
              {"prod_force", costs.prod_force, {"compressed.prod_force"}},
              {"total", costs.total(), {}}};
    } else {
      rows = {{"env_mat", costs.env_mat, {"baseline.env_mat"}},
              {"embedding", costs.embedding,
               {"baseline.embedding_fwd", "baseline.embedding_bwd"}},
              {"descriptor_fit", costs.descriptor_fit, {"baseline.descriptor_fit"}},
              {"prod_force", costs.prod_force, {"baseline.prod_force"}},
              {"total", costs.total(), {}}};
    }
  } else if (path == "mixed" || path == "se_r") {
    for (const char* stage : {"env_mat", "descriptor", "prod_force"})
      rows.push_back({stage, {}, {path + "." + stage}});
  } else {
    return;
  }

  const double per_eval_atom =
      1.0 / (static_cast<double>(evals) * static_cast<double>(n_atoms));
  std::printf("\nforce-kernel sections%s (per atom per evaluation, timed steps):\n",
              modeled ? " vs cost model" : "");
  if (modeled) {
    std::printf("  %-15s %12s %14s %14s\n", "stage", "measured", "modeled", "intensity");
    std::printf("  %-15s %12s %14s %14s\n", "", "[us]", "[kFLOP]", "[FLOP/B]");
  } else {
    std::printf("  %-15s %12s\n", "stage", "measured");
    std::printf("  %-15s %12s\n", "", "[us]");
  }
  for (const auto& row : rows) {
    double seconds = 0.0;
    for (const auto& s : row.sections) {
      const auto it = timed.find(s);
      if (it != timed.end()) seconds += it->second.total_seconds;
    }
    if (row.sections.empty())
      std::printf("  %-15s %12s", row.label, "");
    else
      std::printf("  %-15s %12.3f", row.label, seconds * per_eval_atom * 1e6);
    if (modeled)
      std::printf(" %14.2f %14.2f", row.modeled.flops / 1e3, row.modeled.intensity());
    std::printf("\n");
  }
}

/// The fitting net's recorded cost per atom per evaluation of the timed
/// steps (CostRegistry "fit.block", booked by every DP path's compute()):
/// forward + backward FLOPs over the weight bytes its blocks streamed.
/// Batching the atoms of a center type into blocks is what lifts this
/// intensity above one row's.
void print_fit_block_cost(std::size_t n_atoms, std::uint64_t evals, const dp::KernelCost& c) {
  if (c.flops <= 0.0 || evals == 0 || n_atoms == 0) return;
  const double per_eval_atom =
      1.0 / (static_cast<double>(evals) * static_cast<double>(n_atoms));
  std::printf("fitting net (fit.block): %.1f kFLOP, %.2f kB weights per atom, "
              "intensity %.2f FLOP/B\n",
              c.flops * per_eval_atom / 1e3, c.bytes_read * per_eval_atom / 1e3,
              c.intensity());
}

int cmd_init(const Args& args) {
  accept_only(args, {"system", "out", "demo", "descriptor", "seed"});
  const std::string system = args.get("system", "water");
  const std::string out = args.get("out", "model.dpm");
  DPModel model(config_for(system, args.has("demo"), args.get("descriptor", "se_a")),
                static_cast<std::uint64_t>(args.get_int("seed", 2022)));
  model.save(out);
  std::printf("wrote %s model to %s\n", system.c_str(), out.c_str());
  return 0;
}

int cmd_info(const Args& args) {
  accept_only(args, {"model"});
  DPModel model = DPModel::load(args.get("model", "model.dpm"));
  const ModelConfig& c = model.config();
  std::printf("cutoff        %.2f A (smooth from %.2f A)\n", c.rcut, c.rcut_smth);
  std::printf("types         %d\n", c.ntypes);
  std::printf("sel           ");
  for (int s : c.sel) std::printf("%d ", s);
  std::printf(" (N_m = %d)\n", c.nm());
  std::printf("embedding     ");
  for (std::size_t w : c.embed_widths) std::printf("%zu ", w);
  std::printf(" (M = %zu)\n", c.m());
  std::printf("axis neurons  %zu (descriptor %zu)\n", c.axis_neuron, c.descriptor_dim());
  std::printf("fitting       ");
  for (std::size_t w : c.fit_widths) std::printf("%zu ", w);
  std::printf("\n");
  return 0;
}

int cmd_compress(const Args& args) {
  accept_only(args, {"model", "interval", "rmin", "out"});
  DPModel model = DPModel::load(args.get("model", "model.dpm"));
  const double interval = args.get_double("interval", 0.01);
  const double rmin = args.get_double("rmin", 0.8);
  dp::tab::TabulationSpec spec{
      0.0, dp::tab::TabulatedDP::s_max(model.config(), rmin), interval};
  dp::WallTimer t;
  dp::tab::TabulatedDP tab(model, spec);
  std::printf("tabulated %d embedding net(s) over s in [0, %.3f], interval %.4g\n",
              model.config().ntypes, spec.hi, interval);
  std::printf("table size %.2f MB, built in %.2f s\n",
              static_cast<double>(tab.total_bytes()) / 1e6, t.seconds());
  if (args.has("out")) {
    dp::tab::save_compressed_model(args.get("out"), tab);
    std::printf("wrote compressed bundle to %s\n", args.get("out").c_str());
  }
  return 0;
}

int cmd_run(const Args& args) {
  accept_only(args, {"model", "compressed", "system", "data", "cells", "restart", "vacuum",
                     "rmin", "interval", "path", "steps", "dt", "temp", "skin", "thermo-every",
                     "rebuild-every", "ranks", "transport", "rank", "world", "rendezvous",
                     "timeout", "thermostat", "pressure", "dump", "thermo", "save-checkpoint",
                     "force-dump", "trace", "metrics", "health", "flight-recorder",
                     "inject-segv", "inject-fatal"});
  const ObsOutputs obs_out = setup_observability(args);
  // Either a raw model (tables built on the fly) or a compressed bundle.
  std::unique_ptr<dp::tab::CompressedModel> bundle;
  std::unique_ptr<DPModel> owned_model;
  std::unique_ptr<dp::tab::TabulatedDP> owned_tab;
  if (args.has("compressed")) {
    bundle = std::make_unique<dp::tab::CompressedModel>(
        dp::tab::CompressedModel::load(args.get("compressed")));
  } else {
    owned_model = std::make_unique<DPModel>(DPModel::load(args.get("model", "model.dpm")));
  }
  const DPModel& model = bundle ? bundle->model() : *owned_model;
  const std::string system = args.get("system", "water");
  auto sys = args.has("data") ? dp::md::read_lammps_data(args.get("data"))
                              : system_for(system, args.get_int("cells", 1));
  if (args.has("data"))
    std::printf("loaded %zu atoms from %s\n", sys.atoms.size(), args.get("data").c_str());
  bool restarted = false;
  if (args.has("restart")) {
    const auto ck = dp::md::load_checkpoint(args.get("restart"));
    sys = ck.config;
    restarted = true;
    std::printf("restarted from %s (step %d, %zu atoms)\n", args.get("restart").c_str(),
                ck.step, sys.atoms.size());
  }
  // Inhomogeneous-load scenario: grow the box along x by FRAC without moving
  // atoms, leaving a vacuum slab at high x — the workload where uniform slabs
  // would leave ranks idle and the count-equalized planes earn their keep.
  const double vacuum = args.get_double("vacuum", 0.0);
  if (vacuum > 0.0) {
    const dp::Vec3 L = sys.box.lengths();
    sys.box = dp::md::Box(L.x * (1.0 + vacuum), L.y, L.z);
    std::printf("vacuum gap: box stretched to %.2f A along x\n",
                sys.box.lengths().x);
  }

  if (!bundle) {
    const double rmin = args.get_double("rmin", system == "water" ? 0.8 : 1.8);
    dp::tab::TabulationSpec spec{0.0, dp::tab::TabulatedDP::s_max(model.config(), rmin),
                                 args.get_double("interval", 0.01)};
    owned_tab = std::make_unique<dp::tab::TabulatedDP>(model, spec);
  }
  const dp::tab::TabulatedDP& tabulated = bundle ? bundle->tabulated() : *owned_tab;

  std::string path = args.get("path", "fused");
  if (model.config().descriptor == dp::core::DescriptorKind::SeR) path = "se_r";
  // Every rank builds its own force field.
  const auto make_ff = [&]() -> std::unique_ptr<dp::md::ForceField> {
    if (path == "se_r") return std::make_unique<dp::fused::SeRFusedDP>(tabulated);
    if (path == "baseline") return std::make_unique<dp::core::BaselineDP>(model);
    if (path == "tabulated") return std::make_unique<dp::tab::CompressedDP>(tabulated);
    if (path == "fused") return std::make_unique<dp::fused::FusedDP>(tabulated);
    if (path == "mixed") return std::make_unique<dp::fused::MixedFusedDP>(tabulated);
    throw dp::Error("unknown --path '" + path + "'");
  };

  // Transport selection: --transport/--rank/--world/--rendezvous/--timeout
  // override the DP_* environment (transport_config_from_env). Anything but
  // "threads" makes this process exactly one rank of a multi-process world.
  dp::par::TransportConfig tcfg = dp::par::transport_config_from_env();
  if (args.has("transport"))
    tcfg.kind = dp::par::parse_transport_kind(args.get("transport"));
  if (args.has("rank")) tcfg.rank = args.get_int("rank", 0);
  if (args.has("world")) tcfg.world = args.get_int("world", 1);
  if (args.has("rendezvous")) tcfg.rendezvous = args.get("rendezvous");
  if (args.has("timeout")) tcfg.timeout_seconds = args.get_double("timeout", 60.0);
  const bool multiprocess = tcfg.kind != dp::par::TransportKind::Threads;
  const int thread_ranks = args.get_int("ranks", 1);
  const bool distributed = multiprocess || thread_ranks > 1;

  dp::md::SimulationConfig sc;
  sc.steps = args.get_int("steps", 99);
  sc.dt = args.get_double("dt", system == "water" ? 0.5 : 1.0) * 1e-3;  // fs -> ps
  sc.temperature = args.get_double("temp", 330.0);
  sc.skin = args.get_double("skin", 1.0);
  sc.thermo_every = args.get_int("thermo-every", 10);
  // Multi-rank rebuilds also migrate atoms between ranks, so they default
  // to a shorter period.
  sc.rebuild_every = args.get_int("rebuild-every", distributed ? 10 : sc.rebuild_every);

  std::unique_ptr<dp::md::Thermostat> thermostat;
  const std::string tname = args.get("thermostat", "none");
  if (tname == "langevin")
    thermostat = std::make_unique<dp::md::LangevinThermostat>(sc.temperature, 0.1);
  else if (tname == "berendsen")
    thermostat = std::make_unique<dp::md::BerendsenThermostat>(sc.temperature, 0.1);
  else if (tname == "nose-hoover")
    thermostat = std::make_unique<dp::md::NoseHooverThermostat>(sc.temperature, 0.1);
  else if (tname != "none")
    throw dp::Error("unknown --thermostat '" + tname + "'");
  sc.thermostat = thermostat.get();
  std::unique_ptr<dp::md::BerendsenBarostat> barostat;
  if (args.has("pressure")) {
    barostat = std::make_unique<dp::md::BerendsenBarostat>(args.get_double("pressure", 0.0),
                                                           0.1, 1e-5);
    sc.barostat = barostat.get();
  }

  // Run-health watchdogs + crash black box. The fatal hook routes every
  // DP_CHECK failure through obs::notify_fatal before it throws.
  dp::par::DistributedOptions dopts;
  dopts.init_velocities = !restarted;  // a restart keeps the checkpointed velocities
  dp::obs::HealthConfig hcfg;
  hcfg.target_temperature = sc.temperature;
  const bool health_on = args.has("health");
  if (health_on) dopts.health = &hcfg;
  if (health_on || args.has("flight-recorder")) dp::set_fatal_hook(&fatal_bridge);
  if (args.has("flight-recorder")) {
    dopts.flight_recorder = true;
    dopts.flight_dir = args.get("flight-recorder", ".");
    if (dopts.flight_dir == "1") dopts.flight_dir = ".";  // bare flag, no directory value
    dopts.metrics_rewrite_path = obs_out.metrics_path;
    if (!obs_out.metrics_path.empty()) {
      std::snprintf(g_metrics_sync_path, sizeof g_metrics_sync_path, "%s",
                    obs_out.metrics_path.c_str());
      dp::obs::set_fatal_flush_hook(&fsync_metrics_hook);
    }
  }
  // Deterministic fault injection for the crash-path ctests (undocumented).
  const int inject_segv = args.get_int("inject-segv", -1);
  const int inject_fatal = args.get_int("inject-fatal", -1);
  if (inject_segv >= 0 || inject_fatal >= 0) {
    dopts.on_sample = [inject_segv, inject_fatal](int rank, int step) {
      if (rank != 0) return;
      if (inject_segv >= 0 && step >= inject_segv) ::raise(SIGSEGV);
      if (inject_fatal >= 0 && step >= inject_fatal) {
        // Exercise the DP_CHECK fatal route (hook fires: message + flight
        // dump + metrics fsync), then abort: with sibling ranks parked in
        // collectives the exception could never unwind past the rank
        // thread anyway, and abort() hands control to the SIGABRT handler
        // exactly as an uncaught failure would.
        try {
          DP_CHECK_MSG(false, "injected fatal at step " << step);
        } catch (const dp::Error&) {
          std::abort();
        }
      }
    };
  }

  // Trajectory, thermo log and end-of-run files, written by rank 0 from a
  // gather by atom id. Nothing rank 0 does in the sample hook may throw: the
  // other ranks would wait for it in the next collective. So the dump's
  // element symbols are checked here and the end-of-run files are written
  // after the run.
  std::unique_ptr<dp::md::XyzWriter> dump;
  std::unique_ptr<dp::md::ThermoCsvWriter> thermo_csv;
  const std::string force_dump = args.get("force-dump");
  const std::string checkpoint = args.get("save-checkpoint");
  std::unique_ptr<dp::par::ProcessGroup> group;
  if (multiprocess) group = std::make_unique<dp::par::ProcessGroup>(tcfg);
  const int ranks = multiprocess ? group->size() : thread_ranks;
  const bool root = !multiprocess || group->rank() == 0;
  if (root) {
    if (args.has("dump")) {
      const std::vector<std::string> symbols =
          system == "water" ? std::vector<std::string>{"O", "H"}
                            : std::vector<std::string>{"Cu"};
      for (const int t : sys.atoms.type)
        DP_CHECK_MSG(static_cast<std::size_t>(t) < symbols.size(),
                     "--dump: atom type " << t << " has no element symbol");
      dump = std::make_unique<dp::md::XyzWriter>(args.get("dump"), symbols);
    }
    if (args.has("thermo"))
      thermo_csv = std::make_unique<dp::md::ThermoCsvWriter>(args.get("thermo"));
    std::string where;
    if (distributed)
      where = "distributed on " + std::to_string(ranks) + " " +
              (multiprocess ? std::string(group->comm().transport_name()) + " " : "") +
              "ranks | ";
    std::printf("%s | %zu atoms | %spath=%s | dt=%.3g fs | %d steps | thermostat=%s\n",
                system.c_str(), sys.atoms.size(), where.c_str(), path.c_str(), sc.dt * 1e3,
                sc.steps, tname.c_str());
    std::printf("%6s %14s %10s %12s\n", "step", "E_tot [eV]", "T [K]", "P [bar]");
  }
  dp::WallTimer steps_timer;  // restarted at the step-0 sample: times the steps alone
  // Both registries as they stood at the step-0 sample: the setup line
  // prints them, the tables print what the timed steps added.
  SectionTimes timers_at_step0;
  std::map<std::string, dp::KernelCost> costs_at_step0;
  dp::md::Configuration final_state;  // rank 0's gather after the last step
  const auto on_thermo = [&](dp::par::DistributedMd& md, const dp::md::ThermoSample& s) {
    const bool last = s.step == sc.steps;
    dp::md::Configuration state;  // collective: every rank takes part
    if (args.has("dump") || (last && (!force_dump.empty() || !checkpoint.empty())))
      state = md.gather();
    if (s.step == 0) {
      // The ranks meet before and after the snapshot, so it holds all of
      // every in-process rank's setup and none of its step 1.
      md.barrier();
      if (md.rank() == 0) {
        timers_at_step0 = dp::TimerRegistry::instance().snapshot();
        for (const auto& [name, cost] : dp::CostRegistry::instance().entries())
          costs_at_step0[name] = cost;
        steps_timer.reset();
      }
      md.barrier();
    }
    if (md.rank() != 0) return;
    std::printf("%6d %14.6f %10.2f %12.1f\n", s.step, s.total(), s.temperature,
                s.pressure_bar);
    if (thermo_csv) thermo_csv->write(s);
    if (dump) dump->write_frame(state.box, state.atoms, "step=" + std::to_string(s.step));
    if (last) final_state = std::move(state);
  };

  // Timers from model setup must not reach the setup line: it reports the
  // driver's construction and first force evaluation.
  dp::TimerRegistry::instance().clear();
  dp::CostRegistry::instance().clear();
  const dp::par::DistributedRunResult result =
      multiprocess
          ? dp::par::run_distributed_md_rank(group->comm(), sys, make_ff, sc, dopts, on_thermo)
          : dp::par::run_distributed_md(ranks, sys, make_ff, sc, dopts, on_thermo);
  const double wall = steps_timer.seconds();
  if (root) {
    std::printf(
        "comm[%s]: %.1f KB in %llu messages (%.1f KB wire); max ghosts/rank %zu; "
        "wall %.2f s\n",
        result.comm.transport, result.comm.bytes / 1024.0,
        static_cast<unsigned long long>(result.comm.messages),
        result.comm.wire_bytes / 1024.0, result.max_ghost_atoms, result.wall_seconds);
    std::printf("rebuilds %llu (early %llu); load imbalance %.4f\n",
                static_cast<unsigned long long>(result.neighbor_rebuilds),
                static_cast<unsigned long long>(result.early_rebuilds), result.load_imbalance);
    if (!force_dump.empty()) write_force_dump(force_dump, final_state.atoms.force);
    std::printf("done: %.3f us/step/atom\n",
                wall / std::max(sc.steps, 1) / static_cast<double>(sys.atoms.size()) * 1e6);
    const SectionTimes timed = timers_since(timers_at_step0);
    // The evaluations of the timed steps: all but the driver's first.
    const std::uint64_t evals = result.force_evals > 0 ? result.force_evals - 1 : 0;
    print_setup_line(timers_at_step0);
    print_step_breakdown(wall, multiprocess ? 1 : ranks, timed);
    if (!multiprocess) {
      // Every rank's sections are in this process: per atom of the world.
      print_cost_model_table(path, model, sys.atoms.size(), sys.box.volume(), evals, timed);
      print_fit_block_cost(sys.atoms.size(), evals, cost_since(costs_at_step0, "fit.block"));
    }
    if (health_on) print_health_summary(result.health);
  }
  write_observability(obs_out);
  if (root && !checkpoint.empty()) {
    dp::md::save_checkpoint(checkpoint, final_state, sc.steps);
    std::printf("checkpoint written to %s\n", checkpoint.c_str());
  }
  return 0;
}

int cmd_train(const Args& args) {
  accept_only(args, {"frames", "epochs", "cells", "seed", "lr", "pref-f", "ranks", "out",
                     "trace", "metrics"});
  const ObsOutputs obs_out = setup_observability(args);
  // Train a (tiny) model on LJ-labelled copper frames, then save it.
  const int frames = args.get_int("frames", 16);
  const int epochs = args.get_int("epochs", 10);
  dp::core::ModelConfig cfg = dp::core::ModelConfig::tiny();
  cfg.rcut = 4.0;
  DPModel model(cfg, static_cast<std::uint64_t>(args.get_int("seed", 2022)));
  auto data = dp::train::Dataset::lj_copper(frames, args.get_int("cells", 2), 0.12,
                                            static_cast<std::uint64_t>(args.get_int("seed", 2022)));
  dp::train::TrainConfig tc;
  tc.learning_rate = args.get_double("lr", 3e-3);
  tc.pref_f = args.get_double("pref-f", 0.0);

  if (args.get_int("ranks", 1) > 1) {
    const int ranks = args.get_int("ranks", 1);
    std::printf("data-parallel training on %d in-process ranks\n", ranks);
    const auto r = dp::train::train_distributed(ranks, model, data, tc, epochs);
    for (int e = 0; e < epochs; ++e)
      std::printf("epoch %3d: RMSE %.6f eV/atom\n", e + 1,
                  r.epoch_rmse[static_cast<std::size_t>(e)]);
    const std::string out = args.get("out", "trained.dpm");
    model.save(out);
    std::printf("wrote trained model to %s\n", out.c_str());
    write_observability(obs_out);
    return 0;
  }

  dp::train::EnergyTrainer trainer(model, tc);
  std::printf("initial RMSE %.6f eV/atom (forces %.4f eV/A)\n", trainer.evaluate(data),
              trainer.evaluate_forces(data));
  for (int e = 1; e <= epochs; ++e) {
    const double rmse = trainer.epoch(data);
    std::printf("epoch %3d: RMSE %.6f eV/atom\n", e, rmse);
  }
  std::printf("final force RMSE %.4f eV/A\n", trainer.evaluate_forces(data));
  const std::string out = args.get("out", "trained.dpm");
  model.save(out);
  std::printf("wrote trained model to %s\n", out.c_str());
  write_observability(obs_out);
  return 0;
}

int usage() {
  std::printf(
      "usage: dpmd <command> [--option value ...]\n"
      "  init      create a model file       (--system water|copper --out F [--demo])\n"
      "  info      describe a model file     (--model F)\n"
      "  compress  tabulate a model          (--model F [--interval H] [--rmin R])\n"
      "  run       molecular dynamics        (--model F | --compressed F) --system S\n"
      "            [--path baseline|tabulated|fused|mixed] [--cells N] [--steps N]\n"
      "            [--dt FS] [--temp K] [--rebuild-every N] [--ranks N]\n"
      "            [--thermostat none|langevin|berendsen|nose-hoover]\n"
      "            [--pressure BAR] [--dump traj.xyz] [--thermo out.csv]\n"
      "            [--save-checkpoint ckpt]\n"
      "            [--transport threads|shm|tcp --rank K --world N\n"
      "             --rendezvous NAME|HOST:PORT [--timeout S]]  (or DP_TRANSPORT,\n"
      "             DP_RANK, DP_WORLD, DP_RENDEZVOUS, DP_TIMEOUT env)\n"
      "            [--vacuum FRAC] [--force-dump F]\n"
      "            [--restart ckpt] [--data lammps.data]\n"
      "            [--trace out.trace.json] [--metrics out.metrics.jsonl]\n"
      "            [--health] [--flight-recorder [DIR]]\n"
      "  train     fit a model to LJ labels    (--frames N --epochs N [--pref-f W] --out F\n"
      "            [--trace F] [--metrics F])\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.command == "init") return cmd_init(args);
    if (args.command == "info") return cmd_info(args);
    if (args.command == "compress") return cmd_compress(args);
    if (args.command == "run") return cmd_run(args);
    if (args.command == "train") return cmd_train(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpmd: %s\n", e.what());
    return 1;
  }
}
