// The dataflow the three fused-kernel paths share (paper Sec 3.4-3.5):
// FusedDP, MixedFusedDP and SeRFusedDP each derive from Skeleton and supply
// only their two table passes and their own bookings. The skeleton owns the
// rest of one force evaluation:
//
//   env build   the environment matrix, under <path>.env_mat;
//   team loop   each BuildTeam thread walks its chunk_bound chunk of atoms.
//               Pass 1 fills the atom's fitting row (core::FitBlocks), a full
//               block is evaluated at once, and pass 2 runs per atom in block
//               order and writes dE/dR~ over the env rows it walks (the rows
//               become their own gradients; dp/env_mat.hpp). The loop and
//               the energy fold run under <path>.descriptor;
//   energy      one ascending-atom sum on the master after the team joins,
//               so the total has the same bits at every thread count;
//   fit.block   the fitting net's cost booking;
//   prod-force  forces and virial from the gradient rows, under
//               <path>.prod_force.
//
// The passes are template arguments, inlined into the team body: the only
// type erasure is BodyRef, once per thread.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/team.hpp"
#include "common/timer.hpp"
#include "dp/descriptor.hpp"
#include "dp/env_mat.hpp"
#include "dp/prod_force.hpp"
#include "md/force_field.hpp"
#include "tab/tabulated_model.hpp"

namespace dp::fused {

/// Timer sections of one path: the whole call and its three stages.
struct Sections {
  const char* compute;
  const char* env_mat;
  const char* descriptor;
  const char* prod_force;
};

/// Per-thread scratch of a path that stages nothing beside its fitting rows.
struct NoStaging {
  void prepare(std::size_t /*m*/) {}
  std::size_t bytes() const { return 0; }
};

/// `Staging` is the path's per-thread scratch: prepare(m) sizes it, bytes()
/// reports its capacity, and both passes receive the calling thread's.
template <class Staging = NoStaging>
class Skeleton : public md::ForceField {
 public:
  double cutoff() const override { return tab_.model().config().rcut; }
  std::uint64_t extrapolations() const override { return tab_.extrapolations(); }
  std::size_t neighbor_reservation() const override {
    return static_cast<std::size_t>(tab_.model().config().nm());
  }

  const std::vector<double>& atom_energies() const { return atom_energy_; }
  const core::EnvMat& env() const { return env_; }

  /// Slots pass 1 walked in the last compute(), and the reserved N_m per
  /// atom they stand against — Fig 4's redundancy story.
  std::size_t slots_processed() const { return slots_processed_; }
  std::size_t slots_total() const { return slots_total_; }

  /// Capacity-based bytes of every persistent buffer this model owns.
  std::size_t workspace_bytes() const {
    std::size_t b = env_.storage_bytes() + env_ws_.bytes() + prod_ws_.bytes() +
                    atom_energy_.capacity() * sizeof(double) +
                    scratch_.capacity() * sizeof(ThreadScratch);
    for (const ThreadScratch& sc : scratch_) b += sc.fit.bytes() + sc.staging.bytes();
    return b;
  }

 protected:
  /// `path` names the class in the error that refuses a model whose
  /// descriptor is not `kind`, the one the path's kernels build.
  Skeleton(const tab::TabulatedDP& tabulated, core::DescriptorKind kind, const char* path,
           Sections sections, core::EnvMatKernel env_kernel = core::EnvMatKernel::Optimized)
      : tab_(tabulated), sections_(sections), env_kernel_(env_kernel) {
    core::require_descriptor(tabulated.model().config(), kind, path);
  }

  /// One force evaluation around the path's passes:
  ///   pass1(staging, i, ct, row) contracts atom i's slot runs into its
  ///     zeroed fitting row (center type ct) and returns the slots walked;
  ///   pass2(staging, i, grad) walks them again with the row's gradient
  ///     (FitBlocks::flush) and writes dE/dR~ over their env rows.
  template <class Pass1, class Pass2>
  md::ForceResult run(const md::Box& box, md::Atoms& atoms, const md::NeighborList& nlist,
                      bool periodic, const Pass1& pass1, const Pass2& pass2) {
    ScopedTimer timer(sections_.compute, "kernel");
    const core::DPModel& model = tab_.model();
    const core::ModelConfig& cfg = model.config();
    {
      ScopedTimer t(sections_.env_mat, "kernel");
      build_env_mat(cfg, box, atoms, nlist, env_, env_ws_, env_kernel_, periodic);
    }
    const std::size_t n = env_.n_atoms;
    prepare(n);

    md::ForceResult out;
    {
      ScopedTimer t(sections_.descriptor, "kernel");
      // BuildTeam, not `#pragma omp parallel`: the zero-suppression TSan
      // floor (common/team.hpp) — libgomp's reduction write-back on the
      // region's capture frame is invisible to TSan. Per-thread partials
      // live in ThreadScratch and fold on the master after the join.
      auto body = [&](int tid, int T) {
        ThreadScratch& sc = scratch_[static_cast<std::size_t>(tid)];
        const auto flush = [&](int t) {
          sc.fit.flush(t, model.fitting(t), atom_energy_.data(),
                       [&](std::size_t i, const double* grad) { pass2(sc.staging, i, grad); });
        };
        // Counted in a register and stored once: a store per slot into the
        // shared scratch_ array cost the descriptor up to a third, depending
        // on where the heap placed that array.
        std::size_t slots = 0;
        const std::size_t i_end = chunk_bound(n, tid + 1, T);
        for (std::size_t i = chunk_bound(n, tid, T); i < i_end; ++i) {
          const int ct = atoms.type[i];
          slots += pass1(sc.staging, i, ct, sc.fit.push(ct, i));
          if (sc.fit.full(ct)) flush(ct);
        }
        for (int t = 0; t < cfg.ntypes; ++t) flush(t);
        sc.slots = slots;
      };
      BuildTeam::team().run(static_cast<int>(scratch_.size()), BodyRef(body));
      // One sum in ascending atom order, whatever the team's width.
      for (const double e : atom_energy_) out.energy += e;
    }
    std::size_t slots = 0, fit_blocks = 0;
    for (const ThreadScratch& sc : scratch_) {
      slots += sc.slots;
      fit_blocks += sc.fit.blocks();
    }
    slots_processed_ = slots;
    slots_total_ = n * static_cast<std::size_t>(cfg.nm());
    core::record_fit_block_cost(model.fitting(0), n, fit_blocks);
    {
      ScopedTimer t(sections_.prod_force, "kernel");
      atoms.zero_forces();
      prod_force_virial(env_, env_.rmat.data(), box, atoms, periodic, atoms.force, out.virial,
                        prod_ws_);
    }
    return out;
  }

  const tab::TabulatedDP& tab_;
  core::EnvMat env_;

 private:
  /// Per-thread scratch, sized once by prepare() and indexed by the team's
  /// thread id.
  struct ThreadScratch {
    core::FitBlocks fit;  ///< pending fitting rows, one block per center type
    Staging staging;
    std::size_t slots = 0;  ///< slots walked, folded by the master
  };

  void prepare(std::size_t n) {
    const core::ModelConfig& cfg = tab_.model().config();
    atom_energy_.resize(n);
    scratch_.resize(static_cast<std::size_t>(std::max(1, omp_get_max_threads())));
    for (ThreadScratch& sc : scratch_) {
      sc.fit.prepare(cfg);
      sc.staging.prepare(cfg.m());
    }
  }

  Sections sections_;
  core::EnvMatKernel env_kernel_;
  core::EnvMatWorkspace env_ws_;
  core::ProdForceWorkspace prod_ws_;
  std::vector<ThreadScratch> scratch_;
  std::vector<double> atom_energy_;
  std::size_t slots_processed_ = 0;
  std::size_t slots_total_ = 0;
};

}  // namespace dp::fused
