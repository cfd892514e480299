// BuildTeam's fork-join contract: run() returns only after every
// participant of THIS job has left the body, also when the job is wider
// than any before it and the team spawns workers for it, and also when a
// participant throws — then run() rethrows on the caller.
#include "common/team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>

namespace dp {
namespace {

TEST(BuildTeam, WideningJobWaitsForEveryParticipant) {
  // A worker spawned for a wider job must wait for that job. Were it to
  // take the retired job still published, its late check-in would count
  // toward the new one and let run() return while a participant is still
  // inside the body, whose frame then dies.
  for (int trial = 0; trial < 200; ++trial) {
    BuildTeam team;
    auto narrow = [](int, int) {};
    team.run(2, BodyRef(narrow));
    std::atomic<int> finished{0};
    auto wide = [&](int t, int) {
      if (t != 0) std::this_thread::sleep_for(std::chrono::microseconds(50 * t));
      finished.fetch_add(1);
    };
    team.run(6, BodyRef(wide));
    ASSERT_EQ(finished.load(), 6) << "trial " << trial;
  }
}

/// Runs f on a thread of its own and fails, instead of hanging the suite,
/// when f has not returned within the bound; the stuck thread is then left
/// behind, blocked.
template <class F>
void run_bounded(F f) {
  std::packaged_task<void()> task(std::move(f));
  std::future<void> done = task.get_future();
  std::thread th(std::move(task));
  if (done.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    th.detach();
    FAIL() << "the team did not return within 30 s";
  }
  th.join();
  done.get();
}

/// Participant `thrower` of four throws between two barriers: the others
/// wait in the second one, which the thrower never reaches. The exception
/// must reach the caller, no participant may pass that barrier, the next
/// job must run normally, and the team must tear down.
void expect_throw_reaches_caller(int thrower) {
  run_bounded([thrower] {
    BuildTeam team;
    std::atomic<int> passed{0};
    auto body = [&](int t, int) {
      team.barrier();
      if (t == thrower) throw std::runtime_error("participant " + std::to_string(t));
      team.barrier();
      passed.fetch_add(1);
    };
    try {
      team.run(4, BodyRef(body));
      ADD_FAILURE() << "run() returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "participant " + std::to_string(thrower));
    }
    EXPECT_EQ(passed.load(), 0);

    std::atomic<int> ran{0};
    auto next = [&](int, int) {
      team.barrier();
      ran.fetch_add(1);
      team.barrier();
    };
    team.run(4, BodyRef(next));
    EXPECT_EQ(ran.load(), 4);
  });
}

TEST(BuildTeam, MasterThrowBetweenBarriersReachesCaller) { expect_throw_reaches_caller(0); }

TEST(BuildTeam, WorkerThrowBetweenBarriersReachesCaller) { expect_throw_reaches_caller(2); }

}  // namespace
}  // namespace dp
