// Theorem 2.1 machinery: the 3-PARTITION reduction produces instances whose
// optimal makespan equals the triple count exactly when a partition exists.
#include <gtest/gtest.h>

#include "core/lower_bounds.hpp"
#include "core/sos_scheduler.hpp"
#include "core/validator.hpp"
#include "exact/exact_sos.hpp"
#include "hardness/three_partition.hpp"

namespace sharedres {
namespace {

using hardness::ThreePartition;

TEST(ThreePartitionModel, ValidatesFormat) {
  // B = 16, numbers must lie in (4, 8) and sum to q·16.
  ThreePartition good{16, {5, 5, 6, 7, 4, 5}};
  // 4 is not > B/4 = 4 (strict).
  EXPECT_THROW(good.validate_input(), std::invalid_argument);
  ThreePartition ok{16, {5, 5, 6, 7, 5, 4}};
  EXPECT_THROW(ok.validate_input(), std::invalid_argument);
  ThreePartition valid{16, {5, 5, 6, 6, 5, 5}};
  EXPECT_NO_THROW(valid.validate_input());
  ThreePartition wrong_sum{16, {5, 5, 6, 6, 5, 6}};
  EXPECT_THROW(wrong_sum.validate_input(), std::invalid_argument);
  ThreePartition wrong_count{16, {5, 5}};
  EXPECT_THROW(wrong_count.validate_input(), std::invalid_argument);
}

TEST(ThreePartitionReduction, BuildsUnitInstance) {
  const ThreePartition input{16, {5, 5, 6, 6, 5, 5}};
  const core::Instance inst = hardness::to_sos_instance(input);
  EXPECT_EQ(inst.machines(), 3);
  EXPECT_EQ(inst.capacity(), 16);
  EXPECT_EQ(inst.size(), 6u);
  EXPECT_TRUE(inst.unit_size());
  // Eq. (1): resource LB = ⌈32/16⌉ = 2 = q; volume LB = ⌈6/3⌉ = 2.
  EXPECT_EQ(core::lower_bounds(inst).combined(), 2);
}

TEST(ThreePartitionReduction, YesInstancesDecideYes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ThreePartition planted =
        hardness::planted_yes_instance(2, 20, seed);
    const auto decision = hardness::decide_via_sos(planted);
    ASSERT_TRUE(decision.has_value()) << "seed " << seed;
    EXPECT_TRUE(*decision) << "seed " << seed;
  }
}

TEST(ThreePartitionReduction, PerturbedInstancesMostlyDecideNo) {
  int no_count = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ThreePartition planted =
        hardness::planted_yes_instance(2, 20, seed);
    const ThreePartition bad = hardness::perturb(planted, seed * 7 + 1);
    const auto decision = hardness::decide_via_sos(bad);
    ASSERT_TRUE(decision.has_value()) << "seed " << seed;
    no_count += *decision ? 0 : 1;
  }
  // In the tiny value domain a unit move often still admits a different
  // partition; the point here is only that the decision procedure can go
  // both ways (certified NO instances are tested separately).
  EXPECT_GE(no_count, 1);
}

TEST(ThreePartitionReduction, CertifiedNoInstanceDecidesNo) {
  const ThreePartition no = hardness::certified_no_instance();
  const auto decision = hardness::decide_via_sos(no, 20'000'000);
  ASSERT_TRUE(decision.has_value());
  EXPECT_FALSE(*decision);
  // And the optimum is exactly q + 1: the mod-3 obstruction costs one step.
  const auto opt = exact::exact_makespan(
      hardness::to_sos_instance(no), {.max_states = 20'000'000});
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(*opt, 4);
}

TEST(ThreePartitionReduction, ApproximationStaysFeasibleOnHardInstances) {
  // The reduction family is adversarial (everything must pack perfectly);
  // the sliding window still emits feasible schedules within its ratio.
  const ThreePartition planted = hardness::planted_yes_instance(6, 40, 3);
  const core::Instance inst = hardness::to_sos_instance(planted);
  const core::Schedule s = core::schedule_sos_unit(inst);
  const auto check = core::validate(inst, s);
  ASSERT_TRUE(check.ok) << check.error;
  const auto lb = core::lower_bounds(inst).combined();
  EXPECT_EQ(lb, 6);
  // m = 3 unit bound: 1 + 1/(m−1) asymptotic, |S| ≤ (3/2)·LB + 1.
  EXPECT_LE(s.makespan(), lb + lb / 2 + 1);
}

TEST(ThreePartitionReduction, PlantedGeneratorRejectsBadParameters) {
  EXPECT_THROW((void)hardness::planted_yes_instance(0, 16, 1),
               std::invalid_argument);
  EXPECT_THROW((void)hardness::planted_yes_instance(2, 6, 1),
               std::invalid_argument);
  EXPECT_THROW((void)hardness::planted_yes_instance(2, 18, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace sharedres
