// Tests for the core model types: Instance normalization, Schedule
// bookkeeping, the validator's rejection of every violation class (V1–V5),
// and the Eq. (1) lower bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "canonical_order_reference.hpp"
#include "core/instance.hpp"
#include "core/lower_bounds.hpp"
#include "core/schedule.hpp"
#include "core/validator.hpp"
#include "util/error.hpp"

namespace sharedres {
namespace {

using core::Assignment;
using core::Instance;
using core::Job;
using core::Res;
using core::Schedule;

TEST(Instance, SortsByCanonicalTotalOrder) {
  // Requirement first, size as the tie break — the total order that makes
  // any permutation of one job multiset normalize to the same sequence (the
  // invariance the solve cache keys on; see cache/canonical.hpp).
  const Instance inst(2, 10, {Job{3, 5}, Job{2, 3}, Job{1, 5}, Job{1, 1}});
  ASSERT_EQ(inst.size(), 4u);
  EXPECT_EQ(inst.job(0).requirement, 1);
  EXPECT_EQ(inst.job(1).requirement, 3);
  EXPECT_EQ(inst.job(2).requirement, 5);
  EXPECT_EQ(inst.job(3).requirement, 5);
  // The r=5 tie orders by size: p=1 (original index 2) before p=3 (0),
  // even though the caller listed them the other way around.
  EXPECT_EQ(inst.job(2).size, 1);
  EXPECT_EQ(inst.job(3).size, 3);
  EXPECT_EQ(inst.original_id(2), 2u);
  EXPECT_EQ(inst.original_id(3), 0u);
  EXPECT_EQ(inst.total_size(), 7);
  EXPECT_EQ(inst.total_requirement(), 5 + 6 + 15 + 1);
  EXPECT_FALSE(inst.unit_size());
}

TEST(Instance, FullTiesKeepCallerOrderStably) {
  // Jobs equal in (r, p) are interchangeable; the sort is stable among them
  // so generator output stays reproducible.
  const Instance inst(2, 10, {Job{2, 4}, Job{2, 4}, Job{1, 4}});
  EXPECT_EQ(inst.original_id(0), 2u);  // (4,1) first
  EXPECT_EQ(inst.original_id(1), 0u);  // then the (4,2) pair in caller order
  EXPECT_EQ(inst.original_id(2), 1u);
}

// Inputs for the canonical-order differential below, one per path of the
// constructor's order computation.
enum class Shape {
  kSpread,      // distinct-ish values: packed keys, std::sort or radix
  kFewValues,   // r ∈ [1,3], p ∈ [1,2]: mostly full (r, p) ties
  kNarrowBand,  // r ∈ [2^24, 2^24+3]: key bytes equal in every job
  kSorted,      // already in canonical order: the sort is skipped
  kReversed,    // descending, ties in reverse caller order
  kWide,        // an r of 2^61 and a p of 8: keys wider than 64 bits
};

std::vector<Job> order_input(Shape shape, std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto draw = [&](Res lo, Res hi) {
    return std::uniform_int_distribution<Res>(lo, hi)(rng);
  };
  std::vector<Job> jobs(n);
  for (Job& job : jobs) {
    switch (shape) {
      case Shape::kSpread:
        job = Job{draw(1, 1000), draw(1, 1000000)};
        break;
      case Shape::kNarrowBand:
        job = Job{draw(1, 4), (Res{1} << 24) + draw(0, 3)};
        break;
      default:
        job = Job{draw(1, 2), draw(1, 3)};
        break;
    }
  }
  if (shape == Shape::kSorted || shape == Shape::kReversed) {
    std::vector<Job> sorted;
    for (const std::size_t idx : core::reference::canonical_order(jobs)) {
      sorted.push_back(jobs[idx]);
    }
    if (shape == Shape::kReversed) std::reverse(sorted.begin(), sorted.end());
    jobs = std::move(sorted);
  }
  if (shape == Shape::kWide && n >= 2) {
    const Res last = static_cast<Res>(n) - 1;
    const Res wide_r = draw(0, last);
    const Res wide_p = (wide_r + draw(1, last)) % static_cast<Res>(n);
    jobs[static_cast<std::size_t>(wide_r)] = Job{1, Res{1} << 61};
    jobs[static_cast<std::size_t>(wide_p)].size = 8;
  }
  return jobs;
}

TEST(Instance, CanonicalOrderMatchesStableSortReference) {
  // The constructor's order (sorted-input skip, packed keys under std::sort
  // or a byte radix, comparator fallback for wide keys) against a plain
  // comparator std::stable_sort, at sizes on both sides of the 64-job
  // cut-over.
  const Shape shapes[] = {Shape::kSpread, Shape::kFewValues,
                          Shape::kNarrowBand, Shape::kSorted,
                          Shape::kReversed, Shape::kWide};
  const std::size_t job_counts[] = {0, 1, 2, 63, 64, 65, 400, 5000};
  for (const std::size_t n : job_counts) {
    for (const Shape shape : shapes) {
      for (const std::uint64_t seed : {1u, 2u}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " shape=" << static_cast<int>(shape)
                     << " seed=" << seed);
        const std::vector<Job> jobs = order_input(shape, n, seed);
        const std::vector<std::size_t> order =
            core::reference::canonical_order(jobs);
        const Instance inst(4, 100, jobs);
        ASSERT_EQ(inst.size(), n);

        std::vector<Job> sorted;
        std::vector<Res> requirements;
        std::vector<Res> sizes;
        std::vector<Res> totals;
        Res total = 0;
        for (const std::size_t idx : order) {
          const Job& job = jobs[idx];
          sorted.push_back(job);
          requirements.push_back(job.requirement);
          sizes.push_back(job.size);
          totals.push_back(job.requirement * job.size);
          total += job.requirement * job.size;
        }
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(inst.original_id(j), order[j]) << "sorted position " << j;
        }
        EXPECT_EQ(inst.jobs(), sorted);
        EXPECT_EQ(inst.requirements(), requirements);
        EXPECT_EQ(inst.sizes(), sizes);
        EXPECT_EQ(inst.total_requirements(), totals);
        EXPECT_EQ(inst.total_requirement(), total);
      }
    }
  }
}

TEST(Instance, RejectsMalformedInput) {
  EXPECT_THROW(Instance(0, 10, {}), util::Error);
  EXPECT_THROW(Instance(2, 0, {}), util::Error);
  EXPECT_THROW(Instance(2, 10, {Job{0, 1}}), util::Error);
  EXPECT_THROW(Instance(2, 10, {Job{1, 0}}), util::Error);
  try {
    Instance(2, 10, {Job{1, 5}, Job{1, 0}});
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kInvalidInstance);
    // The message names the offending job by constructor index.
    EXPECT_NE(std::string(e.what()).find("job 1"), std::string::npos);
  }
}

TEST(Schedule, AppendsAndMergesIdenticalBlocks) {
  Schedule s;
  s.append(2, {Assignment{0, 5}});
  s.append(3, {Assignment{0, 5}});
  EXPECT_EQ(s.makespan(), 5);
  ASSERT_EQ(s.blocks().size(), 1u);  // merged
  s.append(1, {Assignment{0, 2}});
  EXPECT_EQ(s.blocks().size(), 2u);
  EXPECT_THROW(s.append(0, {}), std::invalid_argument);
}

TEST(Schedule, LengthOverflowThrowsAndLeavesTheScheduleUnchanged) {
  constexpr core::Time kMax = std::numeric_limits<core::Time>::max();
  Schedule s;
  s.append(kMax - 5, {Assignment{0, 1}});
  const Schedule before = s;
  // Merge path: the same assignments would lengthen the last block.
  EXPECT_THROW(s.append(6, {Assignment{0, 1}}), util::OverflowError);
  EXPECT_EQ(s, before);
  // Push path: different assignments would start a new block.
  EXPECT_THROW(s.append(6, {Assignment{1, 1}}), util::OverflowError);
  EXPECT_EQ(s, before);
  // Up to 2^63 - 1 in total still fits, through either path.
  s.append(2, {Assignment{0, 1}});
  s.append(3, {Assignment{1, 1}});
  EXPECT_EQ(s.makespan(), kMax);
  ASSERT_EQ(s.blocks().size(), 2u);
  EXPECT_EQ(s.blocks()[0].length, kMax - 3);
  EXPECT_THROW(s.append(1, {Assignment{1, 1}}), util::OverflowError);
  EXPECT_EQ(s.makespan(), kMax);
}

TEST(Schedule, CreditedAndStepIteration) {
  Schedule s;
  s.append(2, {Assignment{0, 5}, Assignment{1, 3}});
  s.append(1, {Assignment{1, 4}});
  const auto credit = s.credited(3);
  EXPECT_EQ(credit[0], 10);
  EXPECT_EQ(credit[1], 10);
  EXPECT_EQ(credit[2], 0);
  int steps = 0;
  s.for_each_step([&](core::Time t, auto span) {
    ++steps;
    EXPECT_EQ(t, steps);
    EXPECT_GE(span.size(), 1u);
  });
  EXPECT_EQ(steps, 3);
}

class ValidatorTest : public ::testing::Test {
 protected:
  // m=2, C=10; job0: p=2,r=3 (s=6); job1: p=1,r=8 (s=8).
  Instance inst_{2, 10, {Job{2, 3}, Job{1, 8}}};

  [[nodiscard]] Schedule good() const {
    Schedule s;
    s.append(1, {Assignment{0, 3}, Assignment{1, 7}});
    s.append(1, {Assignment{0, 3}, Assignment{1, 1}});
    return s;
  }
};

TEST_F(ValidatorTest, AcceptsFeasibleSchedule) {
  const auto result = core::validate(inst_, good());
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_F(ValidatorTest, RejectsShareAboveRequirement) {
  Schedule s;
  s.append(1, {Assignment{0, 4}});  // r_0 = 3
  EXPECT_FALSE(core::validate(inst_, s).ok);
}

TEST_F(ValidatorTest, RejectsResourceOveruse) {
  Schedule s;
  s.append(1, {Assignment{0, 3}, Assignment{1, 8}});  // 11 > 10
  const auto result = core::validate(inst_, s);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("overuse"), std::string::npos);
}

TEST_F(ValidatorTest, RejectsTooManyMachines) {
  const Instance one_machine(1, 10, {Job{1, 5}, Job{1, 5}});
  Schedule s;
  s.append(1, {Assignment{0, 5}, Assignment{1, 5}});
  const auto result = core::validate(one_machine, s);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("> m"), std::string::npos);
}

TEST_F(ValidatorTest, RejectsPreemption) {
  Schedule s;
  s.append(1, {Assignment{0, 3}, Assignment{1, 7}});
  s.append(1, {Assignment{1, 1}});            // job 0 pauses...
  s.append(1, {Assignment{0, 3}});            // ...and resumes: preemption
  const auto result = core::validate(inst_, s);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("preempted"), std::string::npos);
}

TEST_F(ValidatorTest, RejectsDuplicateJobInStep) {
  Schedule s;
  s.append(1, {Assignment{0, 3}, Assignment{0, 3}});
  const auto result = core::validate(inst_, s);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("twice"), std::string::npos);
}

TEST_F(ValidatorTest, RejectsIncompleteJob) {
  Schedule s;
  s.append(1, {Assignment{0, 3}, Assignment{1, 7}});
  s.append(1, {Assignment{0, 3}});  // job 1 one unit short
  const auto result = core::validate(inst_, s);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("credited"), std::string::npos);
}

TEST_F(ValidatorTest, RejectsZeroShareAndBadJobId) {
  Schedule s1;
  s1.append(1, {Assignment{0, 0}});
  EXPECT_FALSE(core::validate(inst_, s1).ok);
  Schedule s2;
  s2.append(1, {Assignment{9, 1}});
  EXPECT_FALSE(core::validate(inst_, s2).ok);
}

TEST(LowerBounds, MatchesHandComputation) {
  // m=3, C=10. Jobs: (p=2,r=4)→s=8, (p=1,r=25)→s=25, (p=6,r=1)→s=6.
  const Instance inst(3, 10, {Job{2, 4}, Job{1, 25}, Job{6, 1}});
  const core::LowerBounds lb = core::lower_bounds(inst);
  EXPECT_EQ(lb.resource, 4);      // ⌈39/10⌉
  EXPECT_EQ(lb.volume, 3);        // ⌈9/3⌉
  EXPECT_EQ(lb.longest_job, 6);   // job 2 needs p=6 steps; job 1 ⌈25/10⌉=3
  EXPECT_EQ(lb.combined(), 6);
  EXPECT_EQ(lb.resource_exact, util::Rational(39, 10));
  EXPECT_EQ(lb.volume_exact, util::Rational(3));
  EXPECT_EQ(lb.combined_exact(), util::Rational(6));
}

TEST(LowerBounds, EmptyInstance) {
  const Instance inst(3, 10, {});
  EXPECT_EQ(core::lower_bounds(inst).combined(), 0);
}

/// max over jobs and axes of ⌈p_j·r_{j,k} / min(r_{j,k}, C_k)⌉, one
/// division per job and axis: the formula lower_bounds() shortcuts.
Res per_job_longest(const Instance& inst) {
  Res longest = 0;
  for (std::size_t k = 0; k < inst.resource_count(); ++k) {
    for (std::size_t j = 0; j < inst.size(); ++j) {
      const Res r = inst.requirement(j, k);
      longest = std::max(
          longest, util::ceil_div(util::mul_checked(inst.job(j).size, r),
                                  std::min(r, inst.capacity(k))));
    }
  }
  return longest;
}

TEST(LowerBounds, LongestJobMatchesThePerJobFormula) {
  std::mt19937_64 rng(7);
  const auto draw = [&](Res lo, Res hi) {
    return std::uniform_int_distribution<Res>(lo, hi)(rng);
  };
  for (int round = 0; round < 400; ++round) {
    const std::size_t axes = 1 + static_cast<std::size_t>(round % 3);
    std::vector<Res> capacities(axes);
    for (Res& c : capacities) c = draw(1, 40);
    // Requirements up to 3·C_k: every axis mixes jobs at or below its
    // capacity with oversized ones, from none oversized to all.
    std::vector<core::MultiJob> jobs(static_cast<std::size_t>(draw(0, 12)));
    for (core::MultiJob& job : jobs) {
      job.size = draw(1, 9);
      for (const Res c : capacities) job.requirements.push_back(draw(1, 3 * c));
    }
    const Instance inst(static_cast<int>(draw(1, 6)), capacities,
                        std::move(jobs));
    EXPECT_EQ(core::lower_bounds(inst).longest_job, per_job_longest(inst))
        << "round " << round;
  }
  // The classic constructor; r_j == C sits on the boundary where the
  // division goes away.
  const Instance classic(2, 10,
                         {Job{4, 10}, Job{7, 3}, Job{2, 11}, Job{1, 35}});
  EXPECT_EQ(core::lower_bounds(classic).longest_job, 7);
  EXPECT_EQ(per_job_longest(classic), 7);
  const Instance all_oversized(2, 10, {Job{3, 25}, Job{1, 61}});
  EXPECT_EQ(core::lower_bounds(all_oversized).longest_job, 8);  // ⌈75/10⌉
  EXPECT_EQ(per_job_longest(all_oversized), 8);
}

}  // namespace
}  // namespace sharedres
