#include "parallel/minimpi.hpp"

#include <atomic>
#include <exception>
#include <thread>

#include "common/thread_annotations.hpp"

namespace dp::par {

namespace {
struct Message {
  int src;
  int tag;
  std::vector<std::byte> payload;
};
}  // namespace

// The in-process "threads" Transport: ranks are threads of one process, and
// a send is a buffered copy into the destination's mailbox.
//
// Threading discipline (verified race-free under TSan; keep it that way):
//
//  * Mailboxes: one mutex + condvar per destination rank. send() copies the
//    payload, then publishes the message under the destination's mutex and
//    notifies; recv() scans the queue under the same mutex and sleeps on the
//    condvar when its (src, tag) match is absent. The unlock in send()
//    happens-before the matching lock in recv(), so the payload bytes are
//    fully visible to the receiver. No rank ever holds two mailbox locks at
//    once — there is no lock ordering to violate. The nonblocking API rides
//    the same edges: isend() is send() (buffered, completes at post time)
//    and Request::test()/wait() match under the destination mailbox mutex
//    via try_recv()/recv(), so a completed Request's payload is published
//    exactly like a blocking receive's.
//
//  * Collectives: none of its own. barrier() and the allreduces are the
//    Transport base's rank-order folds over tagged p2p (transport.cpp), so
//    they inherit the mailbox hand-off above and fold exactly as the shm and
//    tcp backends do.
//
//  * Stats counters live in the Transport base as relaxed atomics: they are
//    monotonic telemetry read after run_parallel() joins (the join supplies
//    the happens-before), so no ordering stronger than relaxed is needed.
//
// Each of these arguments is encoded as a capability annotation
// (DP_GUARDED_BY below; see common/thread_annotations.hpp), so under clang
// an access that breaks the discipline is a compile error, not a TSan
// finding that depends on the schedule.
class World final : public Transport {
 public:
  explicit World(int nranks)
      : nranks_(nranks), mailboxes_(static_cast<std::size_t>(nranks)) {
    DP_CHECK(nranks >= 1);
  }

  const char* name() const override { return "threads"; }
  int size() const override { return nranks_; }

  SendTicket send(int src, int dest, int tag, const void* data,
                  std::size_t bytes) override {
    DP_CHECK_MSG(dest >= 0 && dest < nranks_, "send to invalid rank " << dest);
    Message msg{src, tag, {}};
    msg.payload.resize(bytes);
    // Zero-byte sends are routine (empty halo slabs, empty migrations) and
    // arrive with data == nullptr: std::vector::data() of an empty vector.
    // memcpy's pointer arguments are attribute-nonnull even for n == 0, so
    // the call itself would be UB — skip it.
    if (bytes != 0) std::memcpy(msg.payload.data(), data, bytes);
    auto& box = mailboxes_[static_cast<std::size_t>(dest)];
    {
      MutexLock lock(box.mu);
      box.queue.push_back(std::move(msg));
    }
    box.cv.notify_all();
    n_messages_.fetch_add(1, std::memory_order_relaxed);
    n_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    n_posts_immediate_.fetch_add(1, std::memory_order_relaxed);
    return kSendComplete;  // buffered: delivery responsibility transferred
  }

  std::vector<std::byte> recv(int me, int src, int tag) override {
    auto& box = mailboxes_[static_cast<std::size_t>(me)];
    MutexUniqueLock lock(box.mu);
    for (;;) {
      for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
        if (it->src == src && it->tag == tag) {
          auto payload = std::move(it->payload);
          box.queue.erase(it);
          return payload;
        }
      }
      box.cv.wait(lock);
    }
  }

  /// Nonblocking variant of recv(): one scan under the mailbox mutex, no
  /// condvar sleep. The mutex hand-off from send() supplies the same
  /// happens-before as the blocking path, so a true return publishes the
  /// payload bytes completely.
  bool try_recv(int me, int src, int tag, std::vector<std::byte>& out) override {
    auto& box = mailboxes_[static_cast<std::size_t>(me)];
    MutexLock lock(box.mu);
    for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
      if (it->src == src && it->tag == tag) {
        out = std::move(it->payload);
        box.queue.erase(it);
        return true;
      }
    }
    return false;
  }

 private:
  struct Mailbox {
    Mutex mu;
    CondVar cv;
    std::deque<Message> queue DP_GUARDED_BY(mu);
  };

  int nranks_;
  std::vector<Mailbox> mailboxes_;
};

int Communicator::size() const { return transport_->size(); }

void Communicator::send(int dest, int tag, const void* data, std::size_t bytes) {
  // Blocking-API contract is "buffered": the payload is copied before the
  // call returns on every backend, so a deferred flush (tcp) needs no wait
  // here — the transport owns the bytes until they drain.
  (void)transport_->send(rank_, dest, tag, data, bytes);
}

std::vector<std::byte> Communicator::recv(int src, int tag) {
  return transport_->recv(rank_, src, tag);
}

bool Communicator::try_recv(int src, int tag, std::vector<std::byte>& out) {
  return transport_->try_recv(rank_, src, tag, out);
}

Request Communicator::isend(int dest, int tag, const void* data, std::size_t bytes) {
  const SendTicket ticket = transport_->send(rank_, dest, tag, data, bytes);
  Request req;
  req.kind_ = Request::Kind::Send;
  req.comm_ = this;
  req.ticket_ = ticket;
  req.done_ = (ticket == kSendComplete);
  return req;
}

Request Communicator::irecv(int src, int tag) {
  Request req;
  req.kind_ = Request::Kind::Recv;
  req.comm_ = this;
  req.src_ = src;
  req.tag_ = tag;
  return req;
}

bool Request::test() {
  if (done_) return true;
  DP_CHECK_MSG(kind_ != Kind::None && comm_ != nullptr, "test() on an empty Request");
  if (kind_ == Kind::Send)
    done_ = comm_->transport_->send_done(ticket_);
  else
    done_ = comm_->try_recv(src_, tag_, payload_);
  return done_;
}

void Request::wait() {
  if (done_) return;
  DP_CHECK_MSG(kind_ != Kind::None && comm_ != nullptr, "wait() on an empty Request");
  if (kind_ == Kind::Send) {
    comm_->transport_->send_wait(ticket_);
  } else {
    payload_ = comm_->recv(src_, tag_);
  }
  done_ = true;
}

std::vector<std::byte> Request::take() {
  DP_CHECK_MSG(kind_ == Kind::Recv, "take() is only valid on an irecv Request");
  wait();
  kind_ = Kind::None;  // consumed: a second take() is a usage error
  done_ = false;
  comm_ = nullptr;
  return std::move(payload_);
}

void Communicator::barrier() { transport_->barrier(rank_); }

std::vector<double> Communicator::broadcast(const std::vector<double>& x, int root) {
  // Built on tagged point-to-point: root sends to everyone (self included).
  constexpr int kTag = 1 << 20;
  if (rank_ == root)
    for (int r = 0; r < size(); ++r) send_vec(r, kTag, x);
  return recv_vec<double>(root, kTag);
}

std::vector<double> Communicator::gatherv(const std::vector<double>& x, int root) {
  constexpr int kTag = (1 << 20) + 1;
  send_vec(root, kTag, x);
  std::vector<double> out;
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      // recv() matches by source, so rank order is preserved.
      const auto part = recv_vec<double>(r, kTag);
      out.insert(out.end(), part.begin(), part.end());
    }
  }
  return out;
}

double Communicator::allreduce_sum(double x) {
  return transport_->allreduce(rank_, {x}, /*take_max=*/false)[0];
}

std::vector<double> Communicator::allreduce_sum(const std::vector<double>& x) {
  return transport_->allreduce(rank_, x, /*take_max=*/false);
}

std::uint64_t Communicator::allreduce_sum(std::uint64_t x) {
  return transport_->allreduce_u64(rank_, {x})[0];
}

double Communicator::allreduce_max(double x) {
  return transport_->allreduce(rank_, {x}, /*take_max=*/true)[0];
}

CommStats Communicator::stats() const { return transport_->stats(); }

const char* Communicator::transport_name() const { return transport_->name(); }

CommStats run_parallel(int nranks, const std::function<void(Communicator&)>& fn) {
  World world(nranks);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&world, &fn, &errors, r] {
      Communicator comm(&world, r);
      try {
        fn(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
  return world.stats();
}

}  // namespace dp::par
