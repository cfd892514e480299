// POSIX shared-memory transport: one segment of N*N SPSC byte rings.
//
// Layout: a Header page, then one Ring per (src, dest) pair. Ring (i, j) is
// written only by rank i's process and read only by rank j's process, so
// each ring is a textbook single-producer single-consumer byte queue and
// the only cross-process synchronization is its head/tail atomic pair:
//
//   * head counts bytes ever written, tail bytes ever consumed (both
//     monotonic; the byte at stream position p lives at data[p % capacity]).
//   * Producer: reads tail (acquire — frees observed only after the
//     consumer's copy-out completed), writes payload bytes, then publishes
//     with head.store(release). Consumer: head.load(acquire) makes those
//     payload bytes visible before it copies them out, then retires space
//     with tail.store(release). This acquire/release pairing is the entire
//     happens-before argument for message payloads; there are no locks.
//
// Messages are framed [u32 tag][u32 len][len payload bytes] and may be
// larger than the ring: both ends treat the ring as a byte *stream* (the
// producer spins for space in chunks, the consumer reassembles partial
// frames), so capacity bounds in-flight bytes, not message size. To make
// that deadlock-free the producer drains its own incoming rings while it
// waits for space — two ranks mid-exchange can always absorb each other's
// backlog. A producer or consumer that makes no progress for
// timeout_seconds raises DP_CHECK (dumping the flight recorders) instead of
// hanging: shared memory has no EOF, so a dead peer is only observable as
// silence.
//
// Bootstrap: rank 0 creates the segment (O_EXCL after unlinking any stale
// one), zero-fills it via ftruncate, writes the geometry and publishes with
// a release store of the magic; peers poll shm_open, then fstat until the
// object is big enough to map (a peer can open it between rank 0's create
// and its ftruncate), then an acquire load of the magic, then everyone
// spins on the `attached` counter as a join barrier. Rank 0 unlinks once
// all ranks are mapped, so the name is gone even if a later crash skips
// destructors (the mapping itself lives until the last munmap).
//
// One Transport instance serves exactly one rank; the in-process threads
// backend (minimpi.cpp) is what serves a whole world from one object.
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <thread>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "parallel/transport.hpp"

namespace dp::par {

namespace {

constexpr std::uint64_t kMagic = 0x64706d645f73686dULL;  // "dpmd_shm"
constexpr std::size_t kAlign = 64;                       // cache-line separation
constexpr std::size_t kFrameHeader = 2 * sizeof(std::uint32_t);
constexpr std::size_t kDefaultRingBytes = std::size_t{1} << 20;

std::size_t align_up(std::size_t x) { return (x + kAlign - 1) & ~(kAlign - 1); }

struct SegmentHeader {
  std::atomic<std::uint64_t> magic;
  std::uint32_t nranks;
  std::uint32_t ring_bytes;
  std::atomic<std::uint32_t> attached;
};

struct RingHeader {
  std::atomic<std::uint64_t> head;  ///< bytes ever published (producer-owned)
  std::atomic<std::uint64_t> tail;  ///< bytes ever consumed (consumer-owned)
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shm transport needs address-free 64-bit atomics");
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "shm transport needs address-free 32-bit atomics");

struct PendingMessage {
  int src;
  int tag;
  std::vector<std::byte> payload;
};

class ShmTransport final : public Transport {
 public:
  explicit ShmTransport(const TransportConfig& cfg)
      : me_(cfg.rank), nranks_(cfg.world), timeout_(cfg.timeout_seconds) {
    DP_CHECK_MSG(!cfg.rendezvous.empty(), "shm transport needs a rendezvous name");
    // Normalize: POSIX wants exactly one leading slash and no others.
    name_.push_back('/');
    for (char c : cfg.rendezvous)
      if (c != '/') name_.push_back(c);

    ring_bytes_ = kDefaultRingBytes;
    if (const char* v = std::getenv("DP_SHM_RING_BYTES")) {
      ring_bytes_ = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
      DP_CHECK_MSG(ring_bytes_ >= 4096, "DP_SHM_RING_BYTES too small");
    }

    if (me_ == 0) {
      create_segment();
    } else {
      open_segment();
    }
    carry_.resize(static_cast<std::size_t>(nranks_));

    // Join barrier: every rank must be mapped before any traffic flows (a
    // message to a not-yet-attached rank would land fine, but the unlink
    // below must not outrun a peer's shm_open).
    header()->attached.fetch_add(1, std::memory_order_acq_rel);
    WallTimer deadline;
    while (header()->attached.load(std::memory_order_acquire) !=
           static_cast<std::uint32_t>(nranks_)) {
      DP_CHECK_MSG(deadline.seconds() < timeout_,
                   "shm bootstrap timeout: " << header()->attached.load()
                                             << "/" << nranks_ << " ranks attached");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (me_ == 0) ::shm_unlink(name_.c_str());
  }

  ~ShmTransport() override {
    if (base_ != nullptr) ::munmap(base_, map_bytes_);
    if (fd_ >= 0) ::close(fd_);
  }

  const char* name() const override { return "shm"; }
  int size() const override { return nranks_; }

  SendTicket send(int src, int dest, int tag, const void* data,
                  std::size_t bytes) override {
    DP_CHECK_MSG(src == me_, "shm transport serves rank " << me_ << " only");
    DP_CHECK_MSG(dest >= 0 && dest < nranks_, "send to invalid rank " << dest);
    n_messages_.fetch_add(1, std::memory_order_relaxed);
    n_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    n_posts_immediate_.fetch_add(1, std::memory_order_relaxed);
    if (dest == me_) {
      // Self-sends (broadcast roots) never touch the rings.
      PendingMessage msg{src, tag, {}};
      msg.payload.resize(bytes);
      if (bytes != 0) std::memcpy(msg.payload.data(), data, bytes);
      inbox_.push_back(std::move(msg));
      return kSendComplete;
    }
    std::uint32_t hdr[2] = {static_cast<std::uint32_t>(tag),
                            static_cast<std::uint32_t>(bytes)};
    DP_CHECK_MSG(bytes == hdr[1], "message too large for shm framing");
    stream_write(dest, hdr, sizeof(hdr));
    if (bytes != 0) stream_write(dest, data, bytes);
    n_wire_bytes_.fetch_add(kFrameHeader + bytes, std::memory_order_relaxed);
    return kSendComplete;  // bytes are in the ring: delivery handed off
  }

  std::vector<std::byte> recv(int me, int src, int tag) override {
    DP_CHECK_MSG(me == me_, "shm transport serves rank " << me_ << " only");
    std::vector<std::byte> out;
    WallTimer idle;
    std::uint32_t spins = 0;
    for (;;) {
      if (match(src, tag, out)) return out;
      if (drain() != 0) {
        idle.reset();
        spins = 0;
        continue;
      }
      DP_CHECK_MSG(idle.seconds() < timeout_,
                   "shm transport timeout: rank " << me_ << " waited "
                                                  << timeout_ << "s for (src " << src
                                                  << ", tag " << tag
                                                  << ") — peer process dead?");
      backoff(spins++);
    }
  }

  bool try_recv(int me, int src, int tag, std::vector<std::byte>& out) override {
    DP_CHECK_MSG(me == me_, "shm transport serves rank " << me_ << " only");
    drain();
    return match(src, tag, out);
  }

 private:
  SegmentHeader* header() { return reinterpret_cast<SegmentHeader*>(base_); }

  RingHeader* ring_header(int src, int dest) {
    auto* p = static_cast<std::byte*>(base_) + align_up(sizeof(SegmentHeader)) +
              (static_cast<std::size_t>(src) * static_cast<std::size_t>(nranks_) +
               static_cast<std::size_t>(dest)) *
                  ring_stride_;
    return reinterpret_cast<RingHeader*>(p);
  }
  std::byte* ring_data(int src, int dest) {
    return reinterpret_cast<std::byte*>(ring_header(src, dest)) +
           align_up(sizeof(RingHeader));
  }

  std::size_t segment_bytes() const {
    return align_up(sizeof(SegmentHeader)) +
           static_cast<std::size_t>(nranks_) * static_cast<std::size_t>(nranks_) *
               ring_stride_;
  }

  void create_segment() {
    ring_stride_ = align_up(align_up(sizeof(RingHeader)) + ring_bytes_);
    map_bytes_ = segment_bytes();
    ::shm_unlink(name_.c_str());  // stale segment from a crashed run
    fd_ = ::shm_open(name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    DP_CHECK_MSG(fd_ >= 0, "shm_open(create " << name_ << ") failed: " << std::strerror(errno));
    DP_CHECK_MSG(::ftruncate(fd_, static_cast<off_t>(map_bytes_)) == 0,
                 "ftruncate(" << map_bytes_ << ") failed: " << std::strerror(errno));
    base_ = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
    DP_CHECK_MSG(base_ != MAP_FAILED, "mmap failed: " << std::strerror(errno));
    // ftruncate zero-fills, which is a valid initial state for every ring
    // (head == tail == 0) and for `attached`; only the geometry must be
    // written before the magic is released.
    header()->nranks = static_cast<std::uint32_t>(nranks_);
    header()->ring_bytes = static_cast<std::uint32_t>(ring_bytes_);
    header()->magic.store(kMagic, std::memory_order_release);
  }

  void open_segment() {
    WallTimer deadline;
    for (;;) {
      fd_ = ::shm_open(name_.c_str(), O_RDWR, 0600);
      if (fd_ >= 0) break;
      DP_CHECK_MSG(deadline.seconds() < timeout_,
                   "shm bootstrap timeout waiting for segment " << name_);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // Map the header page first to learn the geometry (rank 0 may have
    // configured a non-default ring size), then remap the full segment.
    // Rank 0 creates the object before it ftruncates it, and touching a
    // mapping past the object's size is SIGBUS, so each map waits until
    // the size covers it.
    wait_for_size(align_up(sizeof(SegmentHeader)), deadline);
    void* probe = ::mmap(nullptr, align_up(sizeof(SegmentHeader)),
                         PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
    DP_CHECK_MSG(probe != MAP_FAILED, "mmap(header) failed: " << std::strerror(errno));
    auto* hdr = reinterpret_cast<SegmentHeader*>(probe);
    while (hdr->magic.load(std::memory_order_acquire) != kMagic) {
      DP_CHECK_MSG(deadline.seconds() < timeout_,
                   "shm bootstrap timeout waiting for segment init");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    DP_CHECK_MSG(hdr->nranks == static_cast<std::uint32_t>(nranks_),
                 "shm world size mismatch: segment says " << hdr->nranks
                                                          << ", DP_WORLD says " << nranks_);
    ring_bytes_ = hdr->ring_bytes;
    ::munmap(probe, align_up(sizeof(SegmentHeader)));
    ring_stride_ = align_up(align_up(sizeof(RingHeader)) + ring_bytes_);
    map_bytes_ = segment_bytes();
    wait_for_size(map_bytes_, deadline);
    base_ = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
    DP_CHECK_MSG(base_ != MAP_FAILED, "mmap failed: " << std::strerror(errno));
  }

  /// Polls the segment's size until it covers `bytes` (bootstrap timeout
  /// applies).
  void wait_for_size(std::size_t bytes, const WallTimer& deadline) const {
    for (;;) {
      struct stat st {};
      DP_CHECK_MSG(::fstat(fd_, &st) == 0, "fstat(" << name_ << ") failed: " << std::strerror(errno));
      if (st.st_size >= 0 && static_cast<std::size_t>(st.st_size) >= bytes) return;
      DP_CHECK_MSG(deadline.seconds() < timeout_,
                   "shm bootstrap timeout waiting for segment " << name_ << " to reach "
                                                                << bytes << " bytes");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Producer side of the (me_ -> dest) ring: appends `bytes` to the byte
  /// stream, spinning for space (and draining our own inboxes, see the
  /// header comment's deadlock argument) when the consumer lags.
  void stream_write(int dest, const void* data, std::size_t bytes) {
    RingHeader* rh = ring_header(me_, dest);
    std::byte* buf = ring_data(me_, dest);
    const auto* src_bytes = static_cast<const std::byte*>(data);
    std::size_t written = 0;
    WallTimer idle;
    std::uint32_t spins = 0;
    while (written < bytes) {
      const std::uint64_t head = rh->head.load(std::memory_order_relaxed);
      const std::uint64_t tail = rh->tail.load(std::memory_order_acquire);
      const std::size_t space = ring_bytes_ - static_cast<std::size_t>(head - tail);
      if (space == 0) {
        if (drain() != 0) {
          idle.reset();
          spins = 0;
          continue;
        }
        DP_CHECK_MSG(idle.seconds() < timeout_,
                     "shm transport timeout: rank " << me_ << " blocked sending to rank "
                                                    << dest << " (ring full "
                                                    << timeout_ << "s) — peer process dead?");
        backoff(spins++);
        continue;
      }
      const std::size_t chunk = std::min(space, bytes - written);
      const std::size_t at = static_cast<std::size_t>(head % ring_bytes_);
      const std::size_t first = std::min(chunk, ring_bytes_ - at);
      std::memcpy(buf + at, src_bytes + written, first);
      if (chunk > first) std::memcpy(buf, src_bytes + written + first, chunk - first);
      rh->head.store(head + chunk, std::memory_order_release);
      written += chunk;
      idle.reset();
      spins = 0;
    }
  }

  /// Consumer side: moves every available byte of every incoming ring into
  /// the per-source carry buffer, then lifts completed frames into inbox_.
  /// Returns the number of bytes consumed (0 = no progress).
  std::size_t drain() {
    std::size_t consumed = 0;
    for (int src = 0; src < nranks_; ++src) {
      if (src == me_) continue;
      RingHeader* rh = ring_header(src, me_);
      const std::uint64_t head = rh->head.load(std::memory_order_acquire);
      const std::uint64_t tail = rh->tail.load(std::memory_order_relaxed);
      const std::size_t avail = static_cast<std::size_t>(head - tail);
      if (avail == 0) continue;
      const std::byte* buf = ring_data(src, me_);
      auto& carry = carry_[static_cast<std::size_t>(src)];
      const std::size_t old = carry.size();
      carry.resize(old + avail);
      const std::size_t at = static_cast<std::size_t>(tail % ring_bytes_);
      const std::size_t first = std::min(avail, ring_bytes_ - at);
      std::memcpy(carry.data() + old, buf + at, first);
      if (avail > first) std::memcpy(carry.data() + old + first, buf, avail - first);
      rh->tail.store(tail + avail, std::memory_order_release);
      consumed += avail;

      // Lift complete frames out of the carry buffer.
      std::size_t cursor = 0;
      while (carry.size() - cursor >= kFrameHeader) {
        std::uint32_t hdr[2];
        std::memcpy(hdr, carry.data() + cursor, sizeof(hdr));
        const std::size_t len = hdr[1];
        if (carry.size() - cursor < kFrameHeader + len) break;
        PendingMessage msg{src, static_cast<int>(hdr[0]), {}};
        msg.payload.resize(len);
        if (len != 0)
          std::memcpy(msg.payload.data(), carry.data() + cursor + kFrameHeader, len);
        inbox_.push_back(std::move(msg));
        cursor += kFrameHeader + len;
      }
      if (cursor != 0) carry.erase(carry.begin(), carry.begin() + static_cast<std::ptrdiff_t>(cursor));
    }
    return consumed;
  }

  bool match(int src, int tag, std::vector<std::byte>& out) {
    for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
      if (it->src == src && it->tag == tag) {
        out = std::move(it->payload);
        inbox_.erase(it);
        return true;
      }
    }
    return false;
  }

  static void backoff(std::uint32_t spins) {
    if (spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  int me_;
  int nranks_;
  double timeout_;
  std::string name_;
  std::size_t ring_bytes_ = kDefaultRingBytes;
  std::size_t ring_stride_ = 0;
  std::size_t map_bytes_ = 0;
  int fd_ = -1;
  void* base_ = nullptr;

  // Single-threaded per process (only this rank's thread calls in; the
  // cross-process edges are the ring atomics above) — no locks needed.
  std::deque<PendingMessage> inbox_;
  std::vector<std::vector<std::byte>> carry_;  ///< partial frames per source
};

}  // namespace

std::unique_ptr<Transport> make_shm_transport(const TransportConfig& cfg) {
  return std::make_unique<ShmTransport>(cfg);
}

}  // namespace dp::par
