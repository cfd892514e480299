#include "bp/behler_parrinello.hpp"

#include <cmath>
#include <numbers>

#include "common/rng.hpp"
#include "common/timer.hpp"

namespace dp::bp {

void BpConfig::validate() const {
  DP_CHECK(rcut > 0 && ntypes >= 1);
  DP_CHECK_MSG(eta.size() == rs.size() && !eta.empty(),
               "eta and rs must pair up into features");
  DP_CHECK(!hidden.empty());
}

BehlerParrinello::BehlerParrinello(BpConfig config, std::uint64_t seed)
    : cfg_(std::move(config)) {
  cfg_.validate();
  Rng rng(seed);
  for (int t = 0; t < cfg_.ntypes; ++t) {
    nets_.emplace_back(cfg_.n_features(), cfg_.hidden);
    nets_.back().init_random(rng);
  }
}

md::ForceResult BehlerParrinello::compute(const md::Box& box, md::Atoms& atoms,
                                          const md::NeighborList& nlist, bool periodic) {
  ScopedTimer timer("bp.compute");
  const std::size_t n = nlist.n_centers();
  const std::size_t k_feat = cfg_.n_features();
  const double rc = cfg_.rcut;
  const double rc2 = rc * rc;

  atom_energy_.assign(n, 0.0);
  atoms.zero_forces();
  md::ForceResult out;

  AlignedVector<double> features(k_feat), g_d(k_feat);
  nn::FittingNet::Workspace ws;
  for (std::size_t i = 0; i < n; ++i) {
    // ---- Features --------------------------------------------------------
    for (auto& f : features) f = 0.0;
    for (int j : nlist.neighbors(i)) {
      Vec3 d = atoms.pos[static_cast<std::size_t>(j)] - atoms.pos[i];
      if (periodic) d = box.min_image(d);
      const double r2 = norm2(d);
      if (r2 >= rc2) continue;
      const double r = std::sqrt(r2);
      const double fc = 0.5 * (std::cos(std::numbers::pi * r / rc) + 1.0);
      for (std::size_t k = 0; k < k_feat; ++k) {
        const double dr = r - cfg_.rs[k];
        features[k] += std::exp(-cfg_.eta[k] * dr * dr) * fc;
      }
    }

    // ---- Energy + dE/dG --------------------------------------------------
    const int ct = atoms.type[i];
    atom_energy_[i] = nets_[static_cast<std::size_t>(ct)].forward(features.data(), ws);
    out.energy += atom_energy_[i];
    nets_[static_cast<std::size_t>(ct)].backward(ws, g_d.data());

    // ---- Forces: chain through dG/d(r_j - r_i) ---------------------------
    Vec3 fi{};
    for (int j : nlist.neighbors(i)) {
      Vec3 d = atoms.pos[static_cast<std::size_t>(j)] - atoms.pos[i];
      if (periodic) d = box.min_image(d);
      const double r2 = norm2(d);
      if (r2 >= rc2) continue;
      const double r = std::sqrt(r2);
      const double x = std::numbers::pi * r / rc;
      const double fc = 0.5 * (std::cos(x) + 1.0);
      const double dfc = -0.5 * std::numbers::pi / rc * std::sin(x);
      double dg_dr = 0.0;  // sum_k g_d[k] * dG_k/dr
      for (std::size_t k = 0; k < k_feat; ++k) {
        const double dr = r - cfg_.rs[k];
        const double gauss = std::exp(-cfg_.eta[k] * dr * dr);
        dg_dr += g_d[k] * gauss * (-2.0 * cfg_.eta[k] * dr * fc + dfc);
      }
      const Vec3 fpair = d * (dg_dr / r);  // dE_i/dd
      fi += fpair;                          // F_i = +dE/dd, F_j = -dE/dd
      atoms.force[static_cast<std::size_t>(j)] -= fpair;
      out.virial += outer(d, fpair) * (-1.0);
    }
    atoms.force[i] += fi;
  }
  return out;
}

}  // namespace dp::bp
