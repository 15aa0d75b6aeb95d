// Randomized cross-validation ("fuzz") sweeps: many small random instances,
// every engine against every oracle we have. These are the tests most
// likely to catch subtle engine bugs, so they run wide but on small inputs.
#include <gtest/gtest.h>

#include "core/lower_bounds.hpp"
#include "core/sos_scheduler.hpp"
#include "core/validator.hpp"
#include "exact/exact_sos.hpp"
#include "util/prng.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres {
namespace {

using core::Instance;
using core::Job;
using core::Res;
using core::Time;

/// Fully random small instance — no family structure, maximal weirdness.
Instance random_instance(util::Rng& rng) {
  const int m = static_cast<int>(rng.uniform_int(2, 6));
  const Res capacity = rng.uniform_int(1, 30);
  const auto n = static_cast<std::size_t>(rng.uniform_int(0, 12));
  std::vector<Job> jobs;
  for (std::size_t j = 0; j < n; ++j) {
    jobs.push_back(Job{rng.uniform_int(1, 4),
                       rng.uniform_int(1, capacity * 2)});
  }
  return Instance(m, capacity, std::move(jobs));
}

TEST(Fuzz, GeneralEngineAlwaysValidAndAboveLowerBound) {
  util::Rng rng(20250704);
  for (int trial = 0; trial < 800; ++trial) {
    const Instance inst = random_instance(rng);
    const core::Schedule s = core::schedule_sos(inst);
    const auto check = core::validate(inst, s);
    ASSERT_TRUE(check.ok) << "trial " << trial << ": " << check.error;
    ASSERT_GE(s.makespan(), core::lower_bounds(inst).combined())
        << "trial " << trial;
  }
}

TEST(Fuzz, FastForwardEqualsStepwiseAlways) {
  util::Rng rng(424242);
  for (int trial = 0; trial < 2000; ++trial) {
    const Instance inst = random_instance(rng);
    ASSERT_EQ(core::schedule_sos(inst, {.fast_forward = true}),
              core::schedule_sos(inst, {.fast_forward = false}))
        << "trial " << trial;
  }
}

TEST(Fuzz, UnitEngineValidAndConsistentWithGeneralEngine) {
  util::Rng rng(777);
  for (int trial = 0; trial < 300; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(2, 6));
    const Res capacity = rng.uniform_int(2, 25);
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 14));
    std::vector<Job> jobs;
    for (std::size_t j = 0; j < n; ++j) {
      jobs.push_back(Job{1, rng.uniform_int(1, capacity * 2)});
    }
    const Instance inst(m, capacity, std::move(jobs));
    const core::Schedule unit = core::schedule_sos_unit(inst);
    const auto check = core::validate(inst, unit);
    ASSERT_TRUE(check.ok) << "trial " << trial << ": " << check.error;
    ASSERT_EQ(core::schedule_sos_unit(inst, {.fast_forward = false}), unit)
        << "trial " << trial;
    // Both engines obey the same lower bound.
    ASSERT_GE(unit.makespan(), core::lower_bounds(inst).combined());
  }
}

TEST(Fuzz, ApproximationRatiosAgainstExactOnMicroInstances) {
  util::Rng rng(314159);
  for (int trial = 0; trial < 120; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(2, 4));
    const Res capacity = rng.uniform_int(2, 6);
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 5));
    std::vector<Job> jobs;
    for (std::size_t j = 0; j < n; ++j) {
      jobs.push_back(Job{rng.uniform_int(1, 2),
                         rng.uniform_int(1, capacity + 2)});
    }
    const Instance inst(m, capacity, std::move(jobs));
    const auto opt = exact::exact_makespan(inst, {.max_states = 500'000});
    ASSERT_TRUE(opt.has_value()) << "trial " << trial;
    const Time approx = core::schedule_sos(inst).makespan();
    ASSERT_GE(approx, *opt) << "trial " << trial;
    if (m >= 3) {
      // Theorem 3.3, exact rational check against the true optimum.
      ASSERT_LE(util::Rational(approx),
                core::sos_ratio_bound(m) * util::Rational(*opt))
          << "trial " << trial << " m=" << m << " approx=" << approx
          << " opt=" << *opt;
    }
  }
}

TEST(Fuzz, ExtremeShapes) {
  // Degenerate corners that random draws rarely hit.
  const std::vector<Instance> corners = {
      Instance(2, 1, {Job{1, 1}}),                   // minimal everything
      Instance(2, 1, {Job{3, 5}}),                   // r ≫ C = 1
      Instance(6, 10, {Job{1, 1}, Job{1, 1}, Job{1, 1}, Job{1, 1},
                       Job{1, 1}, Job{1, 1}, Job{1, 1}, Job{1, 1}}),
      Instance(3, 1'000'000'000,
               {Job{1, 999'999'999}, Job{1, 1}, Job{2, 500'000'000}}),
      Instance(128, 100, {Job{1, 100}}),             // more machines than jobs
  };
  for (std::size_t i = 0; i < corners.size(); ++i) {
    const core::Schedule s = core::schedule_sos(corners[i]);
    const auto check = core::validate(corners[i], s);
    ASSERT_TRUE(check.ok) << "corner " << i << ": " << check.error;
  }
}

}  // namespace
}  // namespace sharedres
