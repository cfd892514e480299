// BuildTeam's fork-join contract: run() returns only after every
// participant of THIS job has left the body, also when the job is wider
// than any before it and the team spawns workers for it.
#include "common/team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

}  // namespace
}  // namespace dp
