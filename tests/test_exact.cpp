// Tests of the exact branch-and-bound solvers, and the true-approximation-
// ratio checks they enable on tiny instances (Theorem 3.3 vs real OPT).
#include <gtest/gtest.h>

#include <tuple>

#include "core/lower_bounds.hpp"
#include "core/sos_scheduler.hpp"
#include "exact/exact_fixed.hpp"
#include "exact/exact_sas.hpp"
#include "exact/exact_sos.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres {
namespace {

using core::Instance;
using core::Job;
using core::Time;
using util::Rational;

TEST(ExactSos, HandVerifiedCases) {
  // One job, r ≤ C: needs exactly p steps.
  EXPECT_EQ(exact::exact_makespan(Instance(2, 10, {Job{3, 4}})), 3);
  // One job, r > C: ⌈s/C⌉ steps.
  EXPECT_EQ(exact::exact_makespan(Instance(2, 10, {Job{1, 25}})), 3);
  // Two unit jobs that exactly share the resource: one step.
  EXPECT_EQ(exact::exact_makespan(Instance(2, 10, {Job{1, 4}, Job{1, 6}})), 1);
  // Two unit jobs of r=6: they cannot both fit in one step (12 > 10), and
  // only m=2 parts per step: OPT = 2.
  EXPECT_EQ(exact::exact_makespan(Instance(2, 10, {Job{1, 6}, Job{1, 6}})), 2);
  // Empty instance.
  EXPECT_EQ(exact::exact_makespan(Instance(2, 10, {})), 0);
}

TEST(ExactSos, MachineBoundMatters) {
  // Four unit jobs of r=2 with C=10: resource allows all at once, but m=2
  // allows only two per step → OPT = 2.
  const Instance inst(2, 10, {Job{1, 2}, Job{1, 2}, Job{1, 2}, Job{1, 2}});
  EXPECT_EQ(exact::exact_makespan(inst), 2);
}

TEST(ExactSos, PreemptionCanHelp) {
  // Non-preemptive: three unit jobs of r=7, C=10, m=2. Any two overlap
  // steps... preemptive can split across bins arbitrarily:
  // total 21 → ≥ 3 bins; both should be 3 here.
  const Instance inst(2, 10, {Job{1, 7}, Job{1, 7}, Job{1, 7}});
  const auto np = exact::exact_makespan(inst);
  const auto pre = exact::exact_makespan_preemptive(inst);
  ASSERT_TRUE(np.has_value());
  ASSERT_TRUE(pre.has_value());
  EXPECT_LE(*pre, *np);
  EXPECT_EQ(*pre, 3);
}

TEST(ExactSos, RespectsStateLimit) {
  // Instances chosen so the initial bounds do not close them at the root
  // (otherwise the search answers after one state and no limit can trip).
  const Instance inst = workloads::tiny_grid_instance(3, 7, 6, 3, 6);
  ASSERT_TRUE(exact::exact_makespan(inst).has_value());
  exact::ExactLimits limits;
  limits.max_states = 2;
  EXPECT_EQ(exact::exact_makespan(inst, limits), std::nullopt);

  // The SAS and fixed-assignment searches spend the same budget.
  sas::SasInstance tasks;
  tasks.machines = 2;
  tasks.capacity = 10;
  tasks.tasks = {sas::Task{{10, 10, 10}}, sas::Task{{10}}};
  ASSERT_TRUE(exact::exact_sas_sum_completion(tasks).has_value());
  EXPECT_EQ(exact::exact_sas_sum_completion(tasks, {.max_states = 1}),
            std::nullopt);
  const fixedassign::FixedInstance queues{2, {{1, 3, 1}, {3}}};
  ASSERT_TRUE(exact::exact_fixed_makespan(queues).has_value());
  EXPECT_EQ(exact::exact_fixed_makespan(queues, {.max_states = 1}),
            std::nullopt);
}

TEST(ExactBinCount, MatchesHandCases) {
  // Three items of 0.6 bins, k=2: splitting fits them into 2 bins
  // (0.6+0.4 | 0.2+0.6), which matches the volume bound ⌈1.8⌉ = 2.
  binpack::PackingInstance p1{10, 2, {6, 6, 6}};
  EXPECT_EQ(exact::exact_bin_count(p1), 2u);
  // Cardinality forces more bins than volume: four items of 0.2, k=1.
  binpack::PackingInstance p2{10, 1, {2, 2, 2, 2}};
  EXPECT_EQ(exact::exact_bin_count(p2), 4u);
  // Oversized item: 2.5 bins alone, k=2.
  binpack::PackingInstance p3{10, 2, {25}};
  EXPECT_EQ(exact::exact_bin_count(p3), 3u);
}

using TinyParam = std::tuple<int, std::uint64_t>;

class TinyExactSweep : public ::testing::TestWithParam<TinyParam> {};

TEST_P(TinyExactSweep, ApproximationWithinTheoremRatioOfTrueOptimum) {
  const auto [m, seed] = GetParam();
  const Instance inst =
      workloads::tiny_grid_instance(m, 6, 6, 2, seed);
  const auto opt = exact::exact_makespan(inst);
  ASSERT_TRUE(opt.has_value());
  const Time approx = core::schedule_sos(inst).makespan();
  ASSERT_GE(approx, *opt);
  if (m >= 3) {
    // Theorem 3.3 against the true optimum, exactly in rationals.
    EXPECT_LE(Rational(approx), core::sos_ratio_bound(m) * Rational(*opt))
        << "approx " << approx << " vs OPT " << *opt;
  }
  // Eq. (1) is a valid lower bound on OPT.
  EXPECT_LE(core::lower_bounds(inst).combined(), *opt);
}

TEST_P(TinyExactSweep, PreemptiveNeverWorseThanNonPreemptive) {
  const auto [m, seed] = GetParam();
  const Instance inst =
      workloads::tiny_grid_instance(m, 5, 5, 2, seed + 1000);
  const auto np = exact::exact_makespan(inst);
  const auto pre = exact::exact_makespan_preemptive(inst);
  ASSERT_TRUE(np.has_value());
  ASSERT_TRUE(pre.has_value());
  EXPECT_LE(*pre, *np);
  EXPECT_LE(core::lower_bounds(inst).combined(), *pre);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TinyExactSweep,
    ::testing::Combine(::testing::Values(2, 3, 4),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)),
    [](const ::testing::TestParamInfo<TinyParam>& param_info) {
      return "m" + std::to_string(std::get<0>(param_info.param)) + "_s" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace sharedres
