// Pluggable byte transport under dp::par::minimpi.
//
// minimpi's Communicator API (tagged p2p, nonblocking Requests, collectives)
// is the contract; a Transport is how the bytes actually move. Three
// backends implement it (DESIGN.md "Transport" has the full matrix):
//
//   * threads — the in-process mailbox World (minimpi.cpp): ranks are
//     threads of one process and sends are buffered copies. Default.
//   * shm — one POSIX shared-memory segment of N*N SPSC byte rings for
//     co-located processes (transport_shm.cpp).
//   * tcp — one socket per rank pair plus a reader/flush thread, for real
//     machine boundaries (transport_tcp.cpp).
//
// A Transport instance either serves every rank of one process (threads) or
// exactly one rank of a multi-process world (shm/tcp); the `me`/`src`
// parameters carry the caller's rank so both shapes share one interface.
// Backends implement only point-to-point; the collectives are written once
// in this base class, so every backend folds reductions in the same order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dp::par {

class Communicator;

/// Aggregate communication counters. For the threads backend these are
/// world totals (summed over ranks, collective plumbing included: a barrier
/// counts once per rank and moves 2(n-1) zero-byte messages); for shm/tcp
/// they are this process's view of its one rank.
struct CommStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t barriers = 0;
  std::uint64_t reductions = 0;
  /// Per-transport accounting: p2p posts whose delivery responsibility
  /// transferred at post time vs posts still in flight when the call
  /// returned (only tcp defers — see DESIGN.md on Request lifetimes), and
  /// bytes that actually crossed a process boundary (payload + framing;
  /// zero for threads, where "transport" is a memcpy).
  std::uint64_t posts_immediate = 0;
  std::uint64_t posts_deferred = 0;
  std::uint64_t wire_bytes = 0;
  const char* transport = "threads";  ///< backend that produced these numbers
};

/// Identifies a deferred send inside its transport. kSendComplete means the
/// post completed synchronously (threads and shm always do).
using SendTicket = std::uint64_t;
constexpr SendTicket kSendComplete = 0;

class Transport {
 public:
  virtual ~Transport() = default;

  virtual const char* name() const = 0;
  virtual int size() const = 0;

  /// Posts one tagged message. The payload is copied before returning, so
  /// the caller's buffer is immediately reusable regardless of backend.
  /// Returns kSendComplete when the post finished synchronously, else a
  /// ticket to poll with send_done()/send_wait().
  virtual SendTicket send(int src, int dest, int tag, const void* data,
                          std::size_t bytes) = 0;
  virtual bool send_done(SendTicket t) {
    (void)t;
    return true;  // backends that never defer are born complete
  }
  virtual void send_wait(SendTicket t) { (void)t; }

  /// Blocking receive of the oldest message matching (src, tag).
  virtual std::vector<std::byte> recv(int me, int src, int tag) = 0;
  /// Single nonblocking poll; true moves the payload into `out`.
  virtual bool try_recv(int me, int src, int tag, std::vector<std::byte>& out) = 0;

  /// Collectives, on tagged p2p over tags >= kCollectiveTag: a gather to
  /// rank 0 in rank order, then a broadcast. The reduction folds in *rank*
  /// order at rank 0, independent of arrival order, so every backend gives
  /// the same bits.
  void barrier(int me);
  std::vector<double> allreduce(int me, const std::vector<double>& x, bool take_max);
  /// Integer sum, folded in rank order like allreduce() but never through a
  /// double, so it is exact over the whole uint64_t range (modulo 2^64).
  std::vector<std::uint64_t> allreduce_u64(int me, const std::vector<std::uint64_t>& x);

  /// Tags at or above this value are reserved for the transport layer's own
  /// collective plumbing; Communicator-level code must stay below it.
  static constexpr int kCollectiveTag = 1 << 24;

  CommStats stats() const {
    CommStats s;
    s.messages = n_messages_.load(std::memory_order_relaxed);
    s.bytes = n_bytes_.load(std::memory_order_relaxed);
    s.barriers = n_barriers_.load(std::memory_order_relaxed);
    s.reductions = n_reductions_.load(std::memory_order_relaxed);
    s.posts_immediate = n_posts_immediate_.load(std::memory_order_relaxed);
    s.posts_deferred = n_posts_deferred_.load(std::memory_order_relaxed);
    s.wire_bytes = n_wire_bytes_.load(std::memory_order_relaxed);
    s.transport = name();
    return s;
  }

 protected:
  /// Stats counters are relaxed atomics: monotonic telemetry, read after
  /// the world quiesced (thread join or ProcessGroup teardown supplies the
  /// happens-before), so no stronger ordering is needed.
  std::atomic<std::uint64_t> n_messages_{0};
  std::atomic<std::uint64_t> n_bytes_{0};
  std::atomic<std::uint64_t> n_barriers_{0};
  std::atomic<std::uint64_t> n_reductions_{0};
  std::atomic<std::uint64_t> n_posts_immediate_{0};
  std::atomic<std::uint64_t> n_posts_deferred_{0};
  std::atomic<std::uint64_t> n_wire_bytes_{0};
};

enum class TransportKind { Threads, Shm, Tcp };

/// Bootstrap identity of one process in a multi-process world.
struct TransportConfig {
  TransportKind kind = TransportKind::Threads;
  int rank = 0;
  int world = 1;
  /// shm: segment name (any token; the backend prefixes "/");
  /// tcp: rank 0's rendezvous address as "host:port" (numeric IPv4 or
  /// "localhost").
  std::string rendezvous;
  /// Progress timeout: a blocked recv / full-ring send / bootstrap wait
  /// that makes no progress for this long raises a DP_CHECK fatal (which
  /// dumps the flight recorders) instead of hanging on a dead peer.
  double timeout_seconds = 60.0;
};

/// Parses TransportKind from its CLI/env spelling ("threads"|"shm"|"tcp").
TransportKind parse_transport_kind(const std::string& s);

/// Reads DP_TRANSPORT, DP_RANK, DP_WORLD, DP_RENDEZVOUS and DP_TIMEOUT
/// (seconds); unset variables keep the defaults above.
TransportConfig transport_config_from_env();

std::unique_ptr<Transport> make_shm_transport(const TransportConfig& cfg);
std::unique_ptr<Transport> make_tcp_transport(const TransportConfig& cfg);

/// Binds an ephemeral loopback port, returns it, and closes the socket.
/// For tests composing a tcp rendezvous address without touching socket(2)
/// themselves (raw socket calls outside the transport backends are banned
/// by lint). Inherently racy — another process could claim the port before
/// the rendezvous listener binds it — but fine for single-machine tests.
int pick_free_tcp_port();

/// One process's membership in a multi-process world: connects the
/// configured backend (blocking until every rank has joined) and exposes
/// the rank's Communicator. Destroying the group disconnects.
class ProcessGroup {
 public:
  explicit ProcessGroup(const TransportConfig& cfg);
  ~ProcessGroup();
  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;

  int rank() const { return rank_; }
  int size() const { return transport_->size(); }
  Communicator& comm() { return *comm_; }
  CommStats stats() const { return transport_->stats(); }

 private:
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<Communicator> comm_;
  int rank_ = 0;
};

}  // namespace dp::par
