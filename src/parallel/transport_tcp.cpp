// TCP socket transport: one connection per rank pair plus an IO thread.
//
// Bootstrap (rank-file/env protocol, see DESIGN.md "Transport"):
//   1. Rank 0 listens at the rendezvous address ("host:port"). Every other
//      rank opens its own ephemeral listener, dials rank 0 (with retry until
//      the timeout) and sends a hello {rank, own listen port}.
//   2. Rank 0 records each caller's address (getpeername) and port and sends
//      the full table back over the established connections.
//   3. Each rank r then dials every lower rank (rank 0 from the rendezvous
//      address, the rest from the table) and accepts one connection from
//      every higher rank — a deterministic full mesh with one socket per
//      pair. Handshake IO is blocking with poll timeouts; after the mesh is
//      up every socket goes O_NONBLOCK + TCP_NODELAY.
//
// Steady state: the posting (rank) thread writes frames inline while the
// socket accepts them; when the kernel buffer fills, the remainder is
// copied into a transport-owned per-peer backlog and the post returns a
// deferred ticket — this is the backend where send-completes-at-post stops
// holding (DESIGN.md discusses the Request-lifetime consequences; the
// payload is transport-owned, so discarding the Request early stays safe).
// A dedicated IO thread polls every socket: it drains incoming bytes,
// reassembles [u32 tag][u32 len][payload] frames and publishes them to the
// inbox; it flushes backlogs when sockets become writable; and it turns an
// EOF/error on a socket into that peer's dead flag so callers blocked on
// *that* peer fail with DP_CHECK (dumping the flight recorders) instead of
// hanging. Waits on other, still-live peers continue — a rank closing after
// finishing its protocol is normal shutdown, not a fault; real crashes
// still cascade because whoever fatals on the dead peer closes too.
//
// Happens-before arguments (each lock annotated below; also in
// docs/STATIC_ANALYSIS.md):
//   * inbox_mu_ guards the inbox and the dead-peer flag: the IO thread's
//     unlock after pushing a parsed frame happens-before the rank thread's
//     lock in recv()/try_recv(), publishing the payload bytes exactly like
//     the in-process mailbox hand-off.
//   * out_mu_ guards every peer's backlog and flushed-sequence counter:
//     the rank thread appends (or writes inline — only when the backlog is
//     empty, so frame order on the socket is append order), the IO thread
//     flushes, and ticket completion is observed under the same mutex.
//   * The two locks are never held together: the IO thread takes them
//     strictly sequentially, so there is no ordering to violate.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <thread>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "common/timer.hpp"
#include "parallel/transport.hpp"

namespace dp::par {

namespace {

constexpr std::size_t kFrameHeader = 2 * sizeof(std::uint32_t);
constexpr int kListenBacklog = 64;

struct PendingMessage {
  int src;
  int tag;
  std::vector<std::byte> payload;
};

/// One queued (possibly partially written) outgoing frame.
struct OutChunk {
  std::uint64_t seq = 0;  ///< per-peer send sequence; completion watermark
  std::size_t offset = 0;
  std::vector<std::byte> bytes;
};

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

sockaddr_in parse_rendezvous(const std::string& spec) {
  const auto colon = spec.rfind(':');
  DP_CHECK_MSG(colon != std::string::npos, "tcp rendezvous must be host:port, got '"
                                               << spec << "'");
  std::string host = spec.substr(0, colon);
  const int port = std::atoi(spec.c_str() + colon + 1);
  DP_CHECK_MSG(port > 0 && port < 65536, "bad rendezvous port in '" << spec << "'");
  if (host == "localhost" || host.empty()) host = "127.0.0.1";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  DP_CHECK_MSG(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
               "tcp rendezvous host must be numeric IPv4 or localhost, got '"
                   << host << "'");
  return addr;
}

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(const TransportConfig& cfg)
      : me_(cfg.rank), nranks_(cfg.world), timeout_(cfg.timeout_seconds) {
    peers_.resize(static_cast<std::size_t>(nranks_));
    carry_.resize(static_cast<std::size_t>(nranks_));
    dead_in_.assign(static_cast<std::size_t>(nranks_), 0);
    bootstrap(cfg);
    DP_CHECK_MSG(::pipe(wake_pipe_) == 0, "pipe() failed: " << std::strerror(errno));
    set_nonblocking(wake_pipe_[0]);
    set_nonblocking(wake_pipe_[1]);
    io_thread_ = std::thread([this] { io_loop(); });
  }

  ~TcpTransport() override {
    // Best-effort flush of deferred sends before tearing the mesh down: a
    // peer may still be waiting on bytes we accepted responsibility for.
    {
      MutexUniqueLock lock(out_mu_);
      WallTimer deadline;
      bool pending = true;
      while (pending && deadline.seconds() < timeout_) {
        pending = false;
        for (const auto& p : peers_) pending = pending || (!p.dead && !p.backlog.empty());
        if (pending) out_cv_.wait_for(lock, 0.05);
      }
    }
    stop_.store(true, std::memory_order_release);
    wake_io();
    if (io_thread_.joinable()) io_thread_.join();
    for (auto& p : peers_) close_fd(p.fd);
    close_fd(wake_pipe_[0]);
    close_fd(wake_pipe_[1]);
  }

  const char* name() const override { return "tcp"; }
  int size() const override { return nranks_; }

  SendTicket send(int src, int dest, int tag, const void* data,
                  std::size_t bytes) override {
    DP_CHECK_MSG(src == me_, "tcp transport serves rank " << me_ << " only");
    DP_CHECK_MSG(dest >= 0 && dest < nranks_, "send to invalid rank " << dest);
    n_messages_.fetch_add(1, std::memory_order_relaxed);
    n_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    if (dest == me_) {
      PendingMessage msg{src, tag, {}};
      msg.payload.resize(bytes);
      if (bytes != 0) std::memcpy(msg.payload.data(), data, bytes);
      {
        MutexLock lock(inbox_mu_);
        inbox_.push_back(std::move(msg));
        ++inbox_gen_;
      }
      inbox_cv_.notify_all();
      n_posts_immediate_.fetch_add(1, std::memory_order_relaxed);
      return kSendComplete;
    }

    std::uint32_t hdr[2] = {static_cast<std::uint32_t>(tag),
                            static_cast<std::uint32_t>(bytes)};
    DP_CHECK_MSG(bytes == hdr[1], "message too large for tcp framing");
    n_wire_bytes_.fetch_add(kFrameHeader + bytes, std::memory_order_relaxed);

    Peer& p = peers_[static_cast<std::size_t>(dest)];
    bool deferred = false;
    SendTicket ticket = kSendComplete;
    {
      MutexLock lock(out_mu_);
      DP_CHECK_MSG(!p.dead, "tcp transport: send to dead rank " << dest);
      // Inline fast path only when nothing is queued — otherwise this frame
      // would overtake the backlog on the wire.
      std::size_t written = 0;
      if (p.backlog.empty()) {
        written = write_some(p, hdr, sizeof(hdr));
        if (written == sizeof(hdr) && bytes != 0) {
          written += write_some(p, data, bytes);
        }
      }
      const std::size_t frame = kFrameHeader + bytes;
      if (written < frame) {
        OutChunk chunk;
        chunk.seq = ++p.posted_seq;
        chunk.bytes.resize(frame - written);
        // Stash the unwritten tail (possibly mid-header) in one buffer.
        std::size_t at = 0;
        for (std::size_t i = written; i < sizeof(hdr); ++i)
          chunk.bytes[at++] = reinterpret_cast<const std::byte*>(hdr)[i];
        const std::size_t payload_done = written > sizeof(hdr) ? written - sizeof(hdr) : 0;
        if (bytes > payload_done)
          std::memcpy(chunk.bytes.data() + at,
                      static_cast<const std::byte*>(data) + payload_done,
                      bytes - payload_done);
        p.backlog.push_back(std::move(chunk));
        ticket = make_ticket(dest, p.posted_seq);
        deferred = true;
      } else {
        ++p.posted_seq;
        p.flushed_seq = p.posted_seq;  // fully on the wire at post time
      }
    }
    if (deferred) {
      wake_io();  // IO thread must start watching POLLOUT for this peer
      n_posts_deferred_.fetch_add(1, std::memory_order_relaxed);
      return ticket;
    }
    n_posts_immediate_.fetch_add(1, std::memory_order_relaxed);
    return kSendComplete;
  }

  bool send_done(SendTicket t) override {
    if (t == kSendComplete) return true;
    const int dest = ticket_peer(t);
    const std::uint64_t seq = ticket_seq(t);
    MutexLock lock(out_mu_);
    const Peer& p = peers_[static_cast<std::size_t>(dest)];
    DP_CHECK_MSG(!p.dead, "tcp transport: peer rank " << dest << " died");
    return p.flushed_seq >= seq;
  }

  void send_wait(SendTicket t) override {
    if (t == kSendComplete) return;
    const int dest = ticket_peer(t);
    const std::uint64_t seq = ticket_seq(t);
    MutexUniqueLock lock(out_mu_);
    WallTimer idle;
    while (peers_[static_cast<std::size_t>(dest)].flushed_seq < seq) {
      DP_CHECK_MSG(!peers_[static_cast<std::size_t>(dest)].dead,
                   "tcp transport: peer rank " << dest << " died");
      DP_CHECK_MSG(idle.seconds() < timeout_,
                   "tcp transport timeout flushing send to rank " << dest);
      out_cv_.wait_for(lock, 0.1);
    }
  }

  std::vector<std::byte> recv(int me, int src, int tag) override {
    DP_CHECK_MSG(me == me_, "tcp transport serves rank " << me_ << " only");
    MutexUniqueLock lock(inbox_mu_);
    WallTimer idle;
    std::uint64_t seen_gen = inbox_gen_;
    for (;;) {
      for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
        if (it->src == src && it->tag == tag) {
          auto payload = std::move(it->payload);
          inbox_.erase(it);
          return payload;
        }
      }
      // Only the awaited source's death is fatal: a rank that finished its
      // protocol closes cleanly while others still talk, and that must not
      // kill them. A crash still cascades — whoever blocks on the dead rank
      // fatals and closes, which in turn kills anyone blocked on *them*.
      DP_CHECK_MSG(dead_in_[static_cast<std::size_t>(src)] == 0,
                   "tcp transport: rank " << me_ << " waiting on (src " << src
                                          << ", tag " << tag << ") but rank " << src
                                          << " closed its connection");
      DP_CHECK_MSG(idle.seconds() < timeout_,
                   "tcp transport timeout: rank " << me_ << " waited " << timeout_
                                                  << "s for (src " << src << ", tag "
                                                  << tag << ")");
      inbox_cv_.wait_for(lock, 0.1);
      if (inbox_gen_ != seen_gen) {
        seen_gen = inbox_gen_;
        idle.reset();  // traffic is flowing; only true silence times out
      }
    }
  }

  bool try_recv(int me, int src, int tag, std::vector<std::byte>& out) override {
    DP_CHECK_MSG(me == me_, "tcp transport serves rank " << me_ << " only");
    MutexLock lock(inbox_mu_);
    for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
      if (it->src == src && it->tag == tag) {
        out = std::move(it->payload);
        inbox_.erase(it);
        return true;
      }
    }
    return false;
  }

 private:
  struct Peer {
    int fd = -1;  ///< written during single-threaded bootstrap, then read-only
    std::deque<OutChunk> backlog DP_GUARDED_BY(out_mu_);
    std::uint64_t posted_seq DP_GUARDED_BY(out_mu_) = 0;
    std::uint64_t flushed_seq DP_GUARDED_BY(out_mu_) = 0;
    /// This peer's socket hit EOF or a hard error; sends to it fail fast.
    bool dead DP_GUARDED_BY(out_mu_) = false;
  };

  static SendTicket make_ticket(int peer, std::uint64_t seq) {
    return (static_cast<SendTicket>(static_cast<std::uint32_t>(peer)) << 32) |
           (seq & 0xffffffffULL);
  }
  static int ticket_peer(SendTicket t) { return static_cast<int>(t >> 32); }
  static std::uint64_t ticket_seq(SendTicket t) { return t & 0xffffffffULL; }

  static void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    DP_CHECK_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                 "fcntl(O_NONBLOCK) failed: " << std::strerror(errno));
  }

  static void set_nodelay(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  /// Nonblocking write loop; returns bytes written (may be short on a full
  /// socket buffer). Any hard error marks that peer's connection dead.
  std::size_t write_some(Peer& peer, const void* data, std::size_t bytes)
      DP_REQUIRES(out_mu_) {
    std::size_t written = 0;
    const auto* p = static_cast<const std::byte*>(data);
    while (written < bytes) {
      const ssize_t n = ::send(peer.fd, p + written, bytes - written, MSG_NOSIGNAL);
      if (n > 0) {
        written += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      peer.dead = true;  // ECONNRESET / EPIPE: the peer is gone
      break;
    }
    return written;
  }

  // ---- bootstrap ----------------------------------------------------------

  void deadline_check(const WallTimer& t, const char* what) const {
    DP_CHECK_MSG(t.seconds() < timeout_,
                 "tcp bootstrap timeout (" << what << ") on rank " << me_);
  }

  int create_listener(std::uint16_t port, std::uint16_t* bound_port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    DP_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    DP_CHECK_MSG(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                 "bind(port " << port << ") failed: " << std::strerror(errno));
    DP_CHECK_MSG(::listen(fd, kListenBacklog) == 0,
                 "listen() failed: " << std::strerror(errno));
    if (bound_port != nullptr) {
      sockaddr_in got{};
      socklen_t len = sizeof(got);
      DP_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len) == 0);
      *bound_port = ntohs(got.sin_port);
    }
    return fd;
  }

  int accept_with_timeout(int listener, const WallTimer& deadline) {
    for (;;) {
      pollfd pfd{listener, POLLIN, 0};
      const int r = ::poll(&pfd, 1, 100);
      if (r > 0) {
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd >= 0) return fd;
        if (errno == EINTR || errno == EAGAIN) continue;
        DP_CHECK_MSG(false, "accept() failed: " << std::strerror(errno));
      }
      deadline_check(deadline, "accept");
    }
  }

  int connect_with_retry(const sockaddr_in& addr, const WallTimer& deadline) {
    for (;;) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      DP_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0)
        return fd;
      ::close(fd);
      deadline_check(deadline, "connect");
      // The peer's listener may simply not exist yet — retry until it does.
      // The ranks reach bootstrap within about a millisecond of each other,
      // so a longer sleep would cost a rank that dials first most of it.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void read_exact(int fd, void* data, std::size_t bytes, const WallTimer& deadline) {
    auto* p = static_cast<std::byte*>(data);
    std::size_t got = 0;
    while (got < bytes) {
      pollfd pfd{fd, POLLIN, 0};
      const int r = ::poll(&pfd, 1, 100);
      if (r <= 0) {
        deadline_check(deadline, "handshake read");
        continue;
      }
      const ssize_t n = ::recv(fd, p + got, bytes - got, 0);
      DP_CHECK_MSG(n > 0, "tcp handshake: peer closed early");
      got += static_cast<std::size_t>(n);
    }
  }

  void write_exact(int fd, const void* data, std::size_t bytes) {
    const auto* p = static_cast<const std::byte*>(data);
    std::size_t put = 0;
    while (put < bytes) {
      const ssize_t n = ::send(fd, p + put, bytes - put, MSG_NOSIGNAL);
      DP_CHECK_MSG(n > 0 || errno == EINTR,
                   "tcp handshake write failed: " << std::strerror(errno));
      if (n > 0) put += static_cast<std::size_t>(n);
    }
  }

  void bootstrap(const TransportConfig& cfg) {
    DP_CHECK_MSG(!cfg.rendezvous.empty(), "tcp transport needs a rendezvous host:port");
    const sockaddr_in rendezvous = parse_rendezvous(cfg.rendezvous);
    WallTimer deadline;

    // Table entry per rank > 0: {IPv4 address, listen port}, network order.
    std::vector<std::uint32_t> table(2 * static_cast<std::size_t>(nranks_ - 1), 0);

    if (me_ == 0) {
      const int listener = create_listener(ntohs(rendezvous.sin_port), nullptr);
      for (int k = 1; k < nranks_; ++k) {
        const int fd = accept_with_timeout(listener, deadline);
        std::uint32_t hello[2];
        read_exact(fd, hello, sizeof(hello), deadline);
        const int rank = static_cast<int>(hello[0]);
        DP_CHECK_MSG(rank > 0 && rank < nranks_ && peers_[static_cast<std::size_t>(rank)].fd < 0,
                     "tcp bootstrap: bad hello rank " << rank);
        peers_[static_cast<std::size_t>(rank)].fd = fd;
        sockaddr_in peer_addr{};
        socklen_t len = sizeof(peer_addr);
        DP_CHECK(::getpeername(fd, reinterpret_cast<sockaddr*>(&peer_addr), &len) == 0);
        table[2 * static_cast<std::size_t>(rank - 1)] = peer_addr.sin_addr.s_addr;
        table[2 * static_cast<std::size_t>(rank - 1) + 1] = hello[1];
      }
      int lfd = listener;
      close_fd(lfd);
      for (int r = 1; r < nranks_; ++r)
        write_exact(peers_[static_cast<std::size_t>(r)].fd, table.data(),
                    table.size() * sizeof(std::uint32_t));
    } else {
      std::uint16_t my_port = 0;
      const int listener = create_listener(0, &my_port);
      const int fd0 = connect_with_retry(rendezvous, deadline);
      std::uint32_t hello[2] = {static_cast<std::uint32_t>(me_), my_port};
      write_exact(fd0, hello, sizeof(hello));
      peers_[0].fd = fd0;
      read_exact(fd0, table.data(), table.size() * sizeof(std::uint32_t), deadline);
      // Dial every lower rank...
      for (int r = 1; r < me_; ++r) {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = table[2 * static_cast<std::size_t>(r - 1)];
        addr.sin_port = htons(static_cast<std::uint16_t>(
            table[2 * static_cast<std::size_t>(r - 1) + 1]));
        const int fd = connect_with_retry(addr, deadline);
        const std::uint32_t id = static_cast<std::uint32_t>(me_);
        write_exact(fd, &id, sizeof(id));
        peers_[static_cast<std::size_t>(r)].fd = fd;
      }
      // ...and accept one connection from every higher rank.
      for (int k = me_ + 1; k < nranks_; ++k) {
        const int fd = accept_with_timeout(listener, deadline);
        std::uint32_t id = 0;
        read_exact(fd, &id, sizeof(id), deadline);
        const int rank = static_cast<int>(id);
        DP_CHECK_MSG(rank > me_ && rank < nranks_ &&
                         peers_[static_cast<std::size_t>(rank)].fd < 0,
                     "tcp bootstrap: bad mesh hello rank " << rank);
        peers_[static_cast<std::size_t>(rank)].fd = fd;
      }
      int lfd = listener;
      close_fd(lfd);
    }

    for (int r = 0; r < nranks_; ++r) {
      if (r == me_) continue;
      Peer& p = peers_[static_cast<std::size_t>(r)];
      DP_CHECK_MSG(p.fd >= 0, "tcp bootstrap left rank " << r << " unconnected");
      set_nonblocking(p.fd);
      set_nodelay(p.fd);
    }
  }

  // ---- IO thread ----------------------------------------------------------

  void wake_io() {
    const char b = 1;
    // A full pipe already guarantees a pending wakeup; ignore EAGAIN.
    (void)!::write(wake_pipe_[1], &b, 1);
  }

  void mark_dead(int rank) {
    {
      MutexLock lock(inbox_mu_);
      dead_in_[static_cast<std::size_t>(rank)] = 1;
    }
    inbox_cv_.notify_all();
    {
      MutexLock lock(out_mu_);
      peers_[static_cast<std::size_t>(rank)].dead = true;
    }
    out_cv_.notify_all();
  }

  /// Parses complete frames out of carry_[src] into the inbox.
  void lift_frames(int src) {
    auto& carry = carry_[static_cast<std::size_t>(src)];
    std::size_t cursor = 0;
    bool delivered = false;
    while (carry.size() - cursor >= kFrameHeader) {
      std::uint32_t hdr[2];
      std::memcpy(hdr, carry.data() + cursor, sizeof(hdr));
      const std::size_t len = hdr[1];
      if (carry.size() - cursor < kFrameHeader + len) break;
      PendingMessage msg{src, static_cast<int>(hdr[0]), {}};
      msg.payload.resize(len);
      if (len != 0)
        std::memcpy(msg.payload.data(), carry.data() + cursor + kFrameHeader, len);
      {
        MutexLock lock(inbox_mu_);
        inbox_.push_back(std::move(msg));
        ++inbox_gen_;
      }
      delivered = true;
      cursor += kFrameHeader + len;
    }
    if (cursor != 0)
      carry.erase(carry.begin(), carry.begin() + static_cast<std::ptrdiff_t>(cursor));
    if (delivered) inbox_cv_.notify_all();
  }

  void io_loop() {
    std::vector<pollfd> fds;
    std::vector<int> fd_rank;
    std::vector<std::byte> buf(64 * 1024);
    while (!stop_.load(std::memory_order_acquire)) {
      fds.clear();
      fd_rank.clear();
      fds.push_back({wake_pipe_[0], POLLIN, 0});
      fd_rank.push_back(-1);
      {
        MutexLock lock(out_mu_);
        for (int r = 0; r < nranks_; ++r) {
          const Peer& p = peers_[static_cast<std::size_t>(r)];
          if (p.fd < 0 || p.dead) continue;  // dead sockets would spin POLLHUP
          short events = POLLIN;
          if (!p.backlog.empty()) events |= POLLOUT;
          fds.push_back({p.fd, events, 0});
          fd_rank.push_back(r);
        }
      }
      const int r = ::poll(fds.data(), fds.size(), 200);
      if (r < 0 && errno != EINTR) break;
      if (r <= 0) continue;

      if ((fds[0].revents & POLLIN) != 0) {
        char sink[64];
        while (::read(wake_pipe_[0], sink, sizeof(sink)) > 0) {
        }
      }

      for (std::size_t i = 1; i < fds.size(); ++i) {
        const int rank = fd_rank[i];
        const int fd = fds[i].fd;
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          for (;;) {
            const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
            if (n > 0) {
              auto& carry = carry_[static_cast<std::size_t>(rank)];
              carry.insert(carry.end(), buf.data(), buf.data() + n);
              if (static_cast<std::size_t>(n) < buf.size()) {
                lift_frames(rank);
                break;
              }
              lift_frames(rank);
              continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            if (n < 0 && errno == EINTR) continue;
            // EOF or hard error: this peer is gone. Keep serving the others
            // — a rank that finished its protocol closes while the rest of
            // the world is still exchanging (normal shutdown order).
            mark_dead(rank);
            break;
          }
        }
        if ((fds[i].revents & POLLOUT) != 0) {
          bool progressed = false;
          {
            MutexLock lock(out_mu_);
            Peer& p = peers_[static_cast<std::size_t>(rank)];
            while (!p.backlog.empty()) {
              OutChunk& chunk = p.backlog.front();
              chunk.offset += write_some(p, chunk.bytes.data() + chunk.offset,
                                         chunk.bytes.size() - chunk.offset);
              if (p.dead) break;
              if (chunk.offset < chunk.bytes.size()) break;  // socket full again
              p.flushed_seq = chunk.seq;
              p.backlog.pop_front();
              progressed = true;
            }
          }
          if (progressed) out_cv_.notify_all();
        }
      }
    }
  }

  int me_;
  int nranks_;
  double timeout_;

  std::vector<Peer> peers_;
  int wake_pipe_[2] = {-1, -1};

  /// Inbox: parsed incoming messages + the liveness verdict. IO thread
  /// publishes under the lock; rank thread consumes under the lock (the
  /// same hand-off shape as the in-process mailbox — see file comment).
  Mutex inbox_mu_;
  CondVar inbox_cv_;
  std::deque<PendingMessage> inbox_ DP_GUARDED_BY(inbox_mu_);
  std::uint64_t inbox_gen_ DP_GUARDED_BY(inbox_mu_) = 0;
  /// Per-peer liveness as seen by receivers (1 = that rank's socket closed).
  /// Per-peer rather than a single flag so a rank that finishes its protocol
  /// and disconnects cleanly does not kill waits on still-live peers.
  std::vector<std::uint8_t> dead_in_ DP_GUARDED_BY(inbox_mu_);

  /// Outbound: per-peer backlog + completion watermarks (see file comment).
  Mutex out_mu_;
  CondVar out_cv_;

  /// Reassembly buffers, IO-thread-owned (single consumer per socket).
  std::vector<std::vector<std::byte>> carry_;

  std::atomic<bool> stop_{false};
  std::thread io_thread_;
};

}  // namespace

std::unique_ptr<Transport> make_tcp_transport(const TransportConfig& cfg) {
  return std::make_unique<TcpTransport>(cfg);
}

int pick_free_tcp_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DP_CHECK_MSG(fd >= 0, "pick_free_tcp_port: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // kernel assigns an ephemeral port
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    DP_CHECK_MSG(false, "pick_free_tcp_port: bind() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    DP_CHECK_MSG(false, "pick_free_tcp_port: getsockname() failed");
  }
  const int port = static_cast<int>(ntohs(addr.sin_port));
  ::close(fd);
  return port;
}

}  // namespace dp::par
