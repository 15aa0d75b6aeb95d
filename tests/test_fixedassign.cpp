// Fixed-assignment model (Brinkmann et al. [3], paper §1.2): validator,
// greedy scheduler, exact search, and the "price of fixed assignment"
// comparison against the paper's free-assignment algorithm.
#include <gtest/gtest.h>

#include "core/lower_bounds.hpp"
#include "core/sos_scheduler.hpp"
#include "exact/exact_fixed.hpp"
#include "fixedassign/fixed_model.hpp"
#include "fixedassign/fixed_scheduler.hpp"
#include "util/prng.hpp"

namespace sharedres {
namespace {

using core::Res;
using core::Time;
using fixedassign::FixedInstance;
using fixedassign::FixedSchedule;

FixedInstance random_instance(std::size_t machines, std::size_t jobs_per_queue,
                              Res capacity, Res max_req, std::uint64_t seed) {
  util::Rng rng(seed);
  FixedInstance inst;
  inst.capacity = capacity;
  inst.queues.resize(machines);
  for (auto& queue : inst.queues) {
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(jobs_per_queue)));
    for (std::size_t j = 0; j < n; ++j) {
      queue.push_back(rng.uniform_int(1, max_req));
    }
  }
  return inst;
}

TEST(FixedValidator, AcceptsHandSchedule) {
  // Two processors, C=10. Queue A: 6, 4; queue B: 8.
  FixedInstance inst{10, {{6, 4}, {8}}};
  FixedSchedule sched;
  sched.shares = {{6, 4}, {4, 4}, {0, 0}};  // wait, B needs 8 total
  sched.shares = {{6, 4}, {4, 4}};          // A: 6 then 4; B: 4+4 = 8
  const auto check = fixedassign::validate(inst, sched);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(FixedValidator, RejectsViolations) {
  FixedInstance inst{10, {{6, 4}, {8}}};
  // Overuse.
  FixedSchedule overuse;
  overuse.shares = {{6, 8}, {4, 0}};
  EXPECT_FALSE(fixedassign::validate(inst, overuse).ok);
  // Paused started job on B.
  FixedSchedule paused;
  paused.shares = {{6, 4}, {4, 0}, {0, 4}};
  EXPECT_FALSE(fixedassign::validate(inst, paused).ok);
  // Unfinished queue.
  FixedSchedule unfinished;
  unfinished.shares = {{6, 8}};
  EXPECT_FALSE(fixedassign::validate(inst, unfinished).ok);
  // Out-of-order / overshoot.
  FixedSchedule overshoot;
  overshoot.shares = {{7, 8}, {3, 0}};
  EXPECT_FALSE(fixedassign::validate(inst, overshoot).ok);
}

TEST(FixedGreedy, ValidOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FixedInstance inst = random_instance(4, 6, 1'000, 1'500, seed);
    const FixedSchedule sched = fixedassign::schedule_fixed_greedy(inst);
    const auto check = fixedassign::validate(inst, sched);
    ASSERT_TRUE(check.ok) << "seed " << seed << ": " << check.error;
    ASSERT_GE(sched.makespan(), fixedassign::fixed_lower_bound(inst));
  }
}

TEST(FixedGreedy, TinyCapacityStillValid) {
  const FixedInstance inst = random_instance(3, 4, 3, 5, 77);
  const FixedSchedule sched = fixedassign::schedule_fixed_greedy(inst);
  const auto check = fixedassign::validate(inst, sched);
  ASSERT_TRUE(check.ok) << check.error;
}

TEST(FixedExact, HandCases) {
  // One queue 6,4 and one 8 with C=10: greedy above needs 2; LB = 2.
  EXPECT_EQ(exact::exact_fixed_makespan(FixedInstance{10, {{6, 4}, {8}}}),
            2);
  // Serialization within a queue dominates: 3 jobs on one processor.
  EXPECT_EQ(exact::exact_fixed_makespan(FixedInstance{10, {{2, 2, 2}}}),
            3);
  // Resource dominates: two queues of one 10-requirement job each.
  EXPECT_EQ(exact::exact_fixed_makespan(FixedInstance{10, {{10}, {10}}}),
            2);
  EXPECT_EQ(exact::exact_fixed_makespan(FixedInstance{10, {{}}}), 0);
}

TEST(FixedExact, GreedyWithinFactorTwoOfExactOnTinyInstances) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const FixedInstance inst = random_instance(3, 3, 6, 8, seed + 100);
    const auto opt = exact::exact_fixed_makespan(inst);
    ASSERT_TRUE(opt.has_value()) << "seed " << seed;
    const Time greedy = fixedassign::schedule_fixed_greedy(inst).makespan();
    ASSERT_GE(greedy, *opt);
    // [3] prove 2 − 1/m for their greedy; ours is in the same family.
    EXPECT_LE(greedy, 2 * *opt) << "seed " << seed;
    ASSERT_LE(fixedassign::fixed_lower_bound(inst), *opt);
  }
}

TEST(FixedRelaxation, FreeAssignmentNeverLosesOnBalancedQueues) {
  // The SoS algorithm chooses the assignment itself; on random instances it
  // should be comparable to (usually better than) the fixed greedy.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const FixedInstance inst = random_instance(6, 8, 100'000, 60'000, seed);
    const Time fixed = fixedassign::schedule_fixed_greedy(inst).makespan();
    const core::Instance relaxed = fixedassign::relax_to_sos(inst);
    const Time free_assign = core::schedule_sos_unit(relaxed).makespan();
    EXPECT_LE(free_assign, fixed + fixed / 2 + 1) << "seed " << seed;
  }
}

TEST(FixedRelaxation, AssignmentFreedomHelpsOnSkewedQueues) {
  // All the work piled on one queue: fixed assignment serializes it, the
  // free scheduler spreads it over all machines.
  FixedInstance inst;
  inst.capacity = 100;
  inst.queues = {{30, 30, 30, 30, 30, 30, 30, 30}, {}, {}, {}};
  const Time fixed = fixedassign::schedule_fixed_greedy(inst).makespan();
  const Time free_assign =
      core::schedule_sos_unit(fixedassign::relax_to_sos(inst)).makespan();
  EXPECT_EQ(fixed, 8);       // one job per step, serialized
  EXPECT_LE(free_assign, 4); // 3 jobs per step fit the resource
}

}  // namespace
}  // namespace sharedres
