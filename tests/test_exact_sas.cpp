// Exact SAS optima on micro instances: hand cases, consistency with the
// Lemma-4.3 lower bound, and the Theorem-4.8 algorithm's true ratio.
#include <gtest/gtest.h>

#include "exact/exact_sas.hpp"
#include "sas/sas_bounds.hpp"
#include "sas/sas_scheduler.hpp"
#include "util/checked.hpp"
#include "util/prng.hpp"

namespace sharedres {
namespace {

using core::Res;
using core::Time;
using sas::SasInstance;
using sas::Task;

SasInstance make(int m, Res capacity, std::vector<std::vector<Res>> tasks) {
  SasInstance inst;
  inst.machines = m;
  inst.capacity = capacity;
  for (auto& reqs : tasks) inst.tasks.push_back(Task{std::move(reqs)});
  return inst;
}

TEST(ExactSas, HandCases) {
  // One task, one job fitting in one step: sum = 1.
  EXPECT_EQ(exact::exact_sas_sum_completion(make(2, 10, {{5}})), 1);
  // Two single-job tasks that share one step: both finish at 1 → sum 2.
  EXPECT_EQ(exact::exact_sas_sum_completion(make(2, 10, {{5}, {5}})), 2);
  // Two single-job tasks that cannot share (resource): 1 + 2 = 3.
  EXPECT_EQ(exact::exact_sas_sum_completion(make(2, 10, {{8}, {8}})), 3);
  // A task with a job larger than the capacity: ⌈15/10⌉ = 2 steps → 2.
  EXPECT_EQ(exact::exact_sas_sum_completion(make(2, 10, {{15}})), 2);
  // Machine-bound: three unit jobs in one task, m=2, tiny requirements:
  // 2 jobs at t=1, 1 at t=2 → completion 2.
  EXPECT_EQ(exact::exact_sas_sum_completion(make(2, 10, {{1, 1, 1}})), 2);
  // Empty instance.
  EXPECT_EQ(exact::exact_sas_sum_completion(make(2, 10, {})), 0);
}

TEST(ExactSas, OrderingMatters) {
  // Task A = three jobs of r = 10 = C, task B = one such job, m = 2. The
  // resource delivers 10 units per step, so the 40 units need 4 steps and
  // at most one job finishes per step. Short-task-first is optimal:
  // f_B = 1, f_A = 4 → sum 5; the reverse order costs 3 + 4 = 7.
  const SasInstance inst = make(2, 10, {{10, 10, 10}, {10}});
  const auto opt = exact::exact_sas_sum_completion(inst);
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(*opt, 5);
}

TEST(ExactSas, NeverBelowLemma43Bound) {
  util::Rng rng(555);
  for (int trial = 0; trial < 40; ++trial) {
    SasInstance inst;
    inst.machines = static_cast<int>(rng.uniform_int(2, 4));
    inst.capacity = rng.uniform_int(3, 8);
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t i = 0; i < k; ++i) {
      Task task;
      const auto jobs = static_cast<std::size_t>(rng.uniform_int(1, 3));
      for (std::size_t j = 0; j < jobs; ++j) {
        task.requirements.push_back(rng.uniform_int(1, inst.capacity + 2));
      }
      inst.tasks.push_back(std::move(task));
    }
    const auto opt =
        exact::exact_sas_sum_completion(inst, {.max_states = 400'000});
    ASSERT_TRUE(opt.has_value()) << "trial " << trial;
    ASSERT_GE(*opt, sas::sas_lower_bound(inst)) << "trial " << trial;
  }
}

TEST(ExactSas, Theorem48AlgorithmWithinBoundOfTrueOptimum) {
  util::Rng rng(777);
  for (int trial = 0; trial < 25; ++trial) {
    SasInstance inst;
    inst.machines = 4;  // minimum for schedule_sas
    inst.capacity = rng.uniform_int(4, 8);
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t i = 0; i < k; ++i) {
      Task task;
      const auto jobs = static_cast<std::size_t>(rng.uniform_int(1, 3));
      for (std::size_t j = 0; j < jobs; ++j) {
        task.requirements.push_back(rng.uniform_int(1, inst.capacity));
      }
      inst.tasks.push_back(std::move(task));
    }
    const auto opt =
        exact::exact_sas_sum_completion(inst, {.max_states = 400'000});
    ASSERT_TRUE(opt.has_value()) << "trial " << trial;
    const auto result = sas::schedule_sas(inst);
    ASSERT_GE(result.sum_completion, *opt) << "trial " << trial;
    // S ≤ (2 + 4/(m−3))·OPT + k, exactly (m = 4 → factor 6).
    EXPECT_LE(result.sum_completion,
              6 * *opt + static_cast<Time>(inst.tasks.size()))
        << "trial " << trial << " sum=" << result.sum_completion
        << " opt=" << *opt;
  }
}

TEST(ExactSas, SumsPast64BitsAreOverflowErrors) {
  // One task of two 2^62 jobs: the remaining work of the task is 2^63, so
  // the bound on it must throw instead of wrapping.
  const Res big = Res{1} << 62;
  EXPECT_THROW((void)exact::exact_sas_sum_completion(
                   make(2, big, {{big, big}}), {.max_states = 1000}),
               util::OverflowError);
}

}  // namespace
}  // namespace sharedres
