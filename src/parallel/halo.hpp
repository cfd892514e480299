// Ghost-region (halo) exchange and atom migration.
//
// The staged 6-direction scheme: ghosts travel +x, -x, then +y, -y (seeing
// the x ghosts, which populates edges), then +z, -z (corners). Positions sent
// across a periodic boundary are shifted by the box length so ghosts sit
// geometrically adjacent to the receiving sub-domain; force reduction walks
// the same plan backwards, so every ghost force lands on its owner. Every
// call is blocking: within a dimension both sends are posted before either
// receive is waited on, and the folds run in a fixed stage order, so the
// reduced forces are bitwise reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "md/atoms.hpp"
#include "md/box.hpp"
#include "parallel/decomp.hpp"
#include "parallel/minimpi.hpp"

namespace dp::par {

class HaloExchange {
 public:
  /// halo_width = model cutoff + neighbor skin; must fit in one sub-domain.
  HaloExchange(const md::Box& box, const Decomp& decomp, int rank, double halo_width);

  /// Appends ghost atoms to `atoms` (positions possibly outside the box) and
  /// records the exchange plan. `atoms` must hold exactly the local atoms.
  void exchange_ghosts(Communicator& comm, md::Atoms& atoms);

  /// Re-sends current positions along the recorded plan (between neighbor
  /// list rebuilds, when membership hasn't changed).
  void update_ghost_positions(Communicator& comm, md::Atoms& atoms);

  /// Sends ghost forces back along the reversed plan, accumulating into the
  /// owners' force arrays in a fixed stage order; ghost forces are consumed.
  void reduce_forces(Communicator& comm, md::Atoms& atoms);

  std::size_t n_local() const { return n_local_; }
  std::size_t n_ghost() const { return n_ghost_; }

  /// Lifetime communication accounting for this rank's exchanger — the
  /// per-rank numbers the distributed driver aggregates over minimpi
  /// reductions at the end of a run.
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t messages_sent() const { return messages_sent_; }
  /// Seconds spent blocked in recv (wait + unpack) across all exchanges.
  double wait_seconds() const { return wait_seconds_; }

 private:
  struct Stage {
    int send_to = -1, recv_from = -1;
    int tag = 0;
    std::vector<int> send_idx;  ///< indices into the atom array at send time
    Vec3 shift;                 ///< periodic shift applied to sent positions
    std::size_t recv_begin = 0, recv_count = 0;
  };

  /// isend of one stage payload, updating the communication counters.
  void post_send(Communicator& comm, int dest, int tag, const std::vector<double>& payload);
  /// Timed receive of one stage payload, charged to wait_seconds_.
  std::vector<double> wait_recv(Communicator& comm, int src, int tag);
  /// post_send + wait_recv of one lockstep stage (structural exchange at
  /// rebuild time, where payload sizes change).
  std::vector<double> send_recv(Communicator& comm, int dest, int src, int tag,
                                const std::vector<double>& payload);
  std::vector<double> pack_positions(const Stage& st, const md::Atoms& atoms) const;
  std::vector<double> pack_ghost_forces(const Stage& st, const md::Atoms& atoms) const;

  md::Box box_;
  const Decomp& decomp_;
  int rank_;
  double halo_;
  Vec3 lo_, hi_;
  std::vector<Stage> stages_;
  std::size_t n_local_ = 0, n_ghost_ = 0;
  std::uint64_t bytes_sent_ = 0, messages_sent_ = 0;
  double wait_seconds_ = 0.0;
};

/// Moves atoms that left this rank's sub-domain to their new owners (one
/// staged hop per dimension; callers migrate often enough that atoms never
/// travel more than one sub-domain per migration). `ids` (optional) carries
/// opaque per-atom identifiers along. `rebuild_every` (optional) is the
/// caller's rebuild period, quoted in the post-condition diagnostic when an
/// atom is found to have travelled more than one sub-domain per migration.
void migrate(Communicator& comm, const md::Box& box, const Decomp& decomp, int rank,
             md::Atoms& atoms, std::vector<std::int64_t>* ids = nullptr,
             int rebuild_every = -1);

}  // namespace dp::par
