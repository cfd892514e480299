#include "parallel/transport.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "parallel/minimpi.hpp"

namespace dp::par {

// The collectives, over tagged p2p — the one implementation every backend
// runs (threads, shm and tcp implement only point-to-point).
//
// Shape: a gather to rank 0 (in rank order) followed by a broadcast from
// rank 0. Tags live in the reserved kCollectiveTag space so they can never
// collide with application traffic, and each collective round-trips through
// rank 0 before anyone returns — which is also the synchronization argument:
// rank 0 receives from every rank (their contribution happens-before its
// send of the result/release), and every rank receives rank 0's reply
// (rank 0's fold happens-before their return). FIFO matching per (src, tag)
// keeps back-to-back collectives on the same tags correctly paired.

void Transport::barrier(int me) {
  constexpr int kArrive = kCollectiveTag;
  constexpr int kRelease = kCollectiveTag + 1;
  const int n = size();
  if (me == 0) {
    for (int r = 1; r < n; ++r) (void)recv(0, r, kArrive);
    for (int r = 1; r < n; ++r) send(0, r, kRelease, nullptr, 0);
  } else {
    send(me, 0, kArrive, nullptr, 0);
    (void)recv(me, 0, kRelease);
  }
  n_barriers_.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/// Gather to rank 0 on `tag`, fold in rank order, broadcast on `tag + 1`.
template <class T, class Fold>
std::vector<T> rank_order_reduce(Transport& t, int me, const std::vector<T>& x, int tag,
                                 Fold fold) {
  const int n = t.size();
  const std::size_t bytes = x.size() * sizeof(T);
  std::vector<T> out;
  if (me == 0) {
    out = x;
    std::vector<T> part(x.size());
    for (int r = 1; r < n; ++r) {
      const auto got = t.recv(0, r, tag);
      DP_CHECK_MSG(got.size() == bytes, "allreduce size mismatch across ranks");
      if (!got.empty()) std::memcpy(part.data(), got.data(), got.size());
      // Rank-order fold: deterministic regardless of message arrival order.
      for (std::size_t i = 0; i < out.size(); ++i) out[i] = fold(out[i], part[i]);
    }
    for (int r = 1; r < n; ++r) t.send(0, r, tag + 1, out.data(), bytes);
  } else {
    t.send(me, 0, tag, x.data(), bytes);
    const auto got = t.recv(me, 0, tag + 1);
    DP_CHECK_MSG(got.size() == bytes, "allreduce result size mismatch");
    out.resize(x.size());
    if (!got.empty()) std::memcpy(out.data(), got.data(), got.size());
  }
  return out;
}

}  // namespace

std::vector<double> Transport::allreduce(int me, const std::vector<double>& x,
                                         bool take_max) {
  auto out = rank_order_reduce(*this, me, x, kCollectiveTag + 2, [take_max](double a, double b) {
    return take_max ? std::max(a, b) : a + b;
  });
  n_reductions_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

std::vector<std::uint64_t> Transport::allreduce_u64(int me, const std::vector<std::uint64_t>& x) {
  auto out = rank_order_reduce(*this, me, x, kCollectiveTag + 4,
                               [](std::uint64_t a, std::uint64_t b) { return a + b; });
  n_reductions_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

TransportKind parse_transport_kind(const std::string& s) {
  if (s == "threads") return TransportKind::Threads;
  if (s == "shm") return TransportKind::Shm;
  if (s == "tcp") return TransportKind::Tcp;
  DP_CHECK_MSG(false, "unknown transport '" << s << "' (threads|shm|tcp)");
  return TransportKind::Threads;
}

TransportConfig transport_config_from_env() {
  TransportConfig cfg;
  if (const char* v = std::getenv("DP_TRANSPORT")) cfg.kind = parse_transport_kind(v);
  if (const char* v = std::getenv("DP_RANK")) cfg.rank = std::atoi(v);
  if (const char* v = std::getenv("DP_WORLD")) cfg.world = std::atoi(v);
  if (const char* v = std::getenv("DP_RENDEZVOUS")) cfg.rendezvous = v;
  if (const char* v = std::getenv("DP_TIMEOUT")) cfg.timeout_seconds = std::atof(v);
  return cfg;
}

ProcessGroup::ProcessGroup(const TransportConfig& cfg) : rank_(cfg.rank) {
  DP_CHECK_MSG(cfg.world >= 1, "world size must be at least 1");
  DP_CHECK_MSG(cfg.rank >= 0 && cfg.rank < cfg.world,
               "rank " << cfg.rank << " outside world of " << cfg.world);
  switch (cfg.kind) {
    case TransportKind::Shm:
      transport_ = make_shm_transport(cfg);
      break;
    case TransportKind::Tcp:
      transport_ = make_tcp_transport(cfg);
      break;
    case TransportKind::Threads:
      // More than one threads rank needs a thread per rank: run_parallel().
      DP_CHECK_MSG(cfg.world == 1, "a threads world of " << cfg.world
                                                         << " ranks runs under run_parallel()");
      transport_ = make_threads_transport(1);
      break;
  }
  comm_.reset(new Communicator(transport_.get(), cfg.rank));
}

ProcessGroup::~ProcessGroup() = default;

}  // namespace dp::par
