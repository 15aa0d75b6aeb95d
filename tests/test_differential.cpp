// Differential sweeps: tiny seeded instances through an exact solver and
// every approximation family in the repo, one sweep per family.
//
//  * DifferentialSweep — the SoS engines (general window engine and the
//    unit-size engine) against exact_makespan: validator-clean schedules
//    (validate_all: zero violations, not just first-failure), Theorem 3.3
//    |S| <= (2 + 1/(m-2)) * |OPT| for m >= 3 (m = 2: feasibility only),
//    the unit bound |S| <= m/(m-1) * |OPT| + 1, and Eq. (1) LB <= OPT.
//    The improved portfolio (DESIGN.md §15) rides the same grid: clean,
//    >= OPT, <= the window schedule, and within the inherited ratio.
//  * ImprovedFamilySanity — the improved portfolio on every generator
//    family at production capacity: validator-clean and sandwiched between
//    the Eq. (1) lower bound and the window scheduler's makespan.
//  * SasDifferentialSweep — the Section-4 scheduler against
//    exact_sas_sum_completion: sas::validate-clean, Theorem 4.8
//    sum <= (2 + 4/(m-3)) * OPT + k, and Lemma 4.3 LB <= OPT.
//  * PackingDifferentialSweep — every binpack packer against
//    exact_bin_count, plus the Corollary 3.9 *equivalence*: the window
//    packer's bin count must equal the unit-SoS makespan of the translated
//    instance (items -> unit jobs, bins -> time steps), bin for bin.
//
// All randomness is seeded: every draw derives from the parameter tuple via
// util::Rng (xoshiro256**) — the repo has no unseeded
// std::mt19937/random_device anywhere, so each sweep case is fully
// reproducible from its parameter tuple. Label tier1_slow: the exact
// solvers dominate the runtime (still matched by `ctest -L tier1`).
#include <cstddef>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "binpack/packers.hpp"
#include "binpack/packing.hpp"
#include "core/improved_scheduler.hpp"
#include "core/lower_bounds.hpp"
#include "core/sos_scheduler.hpp"
#include "core/validator.hpp"
#include "exact/exact_sas.hpp"
#include "exact/exact_sos.hpp"
#include "sas/sas_bounds.hpp"
#include "sas/sas_scheduler.hpp"
#include "util/prng.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres {
namespace {

using core::Instance;
using core::Time;
using util::Rational;

/// (machines, jobs, grid, seed); grid coarsens with n to keep the exact
/// branch-and-bound tractable.
using DiffParam = std::tuple<int, std::size_t, core::Res, std::uint64_t>;

class DifferentialSweep : public ::testing::TestWithParam<DiffParam> {
 protected:
  static Instance make(core::Res max_size) {
    const auto [m, n, grid, seed] = GetParam();
    return workloads::tiny_grid_instance(m, n, grid, max_size, seed);
  }

  static std::optional<Time> opt_makespan(const Instance& inst) {
    // Bounded search: a nullopt (limit hit) fails the case instead of
    // hanging the suite; the limit is generous for n <= 10 on these grids.
    return exact::exact_makespan(inst, {.max_states = 2'000'000});
  }

  static void expect_clean(const Instance& inst,
                           const core::Schedule& schedule) {
    const core::ValidationReport report =
        core::validate_all(inst, schedule, 16);
    EXPECT_TRUE(report.ok()) << report.violations.size()
                             << " violation(s), first: "
                             << (report.violations.empty()
                                     ? ""
                                     : report.violations.front().detail);
  }
};

TEST_P(DifferentialSweep, GeneralEngineWithinTheoremRatioOfExactOptimum) {
  const Instance inst = make(/*max_size=*/2);
  const auto opt = opt_makespan(inst);
  ASSERT_TRUE(opt.has_value()) << "exact search exceeded state limit";

  const core::Schedule schedule = core::schedule_sos(inst);
  expect_clean(inst, schedule);
  const Time approx = schedule.makespan();
  ASSERT_GE(approx, *opt);

  const int m = inst.machines();
  if (m >= 3) {
    EXPECT_LE(Rational(approx), core::sos_ratio_bound(m) * Rational(*opt))
        << "m=" << m << " approx=" << approx << " OPT=" << *opt;
  }
  EXPECT_LE(core::lower_bounds(inst).combined(), *opt);
}

TEST_P(DifferentialSweep, UnitEngineWithinUnitRatioOfExactOptimum) {
  const Instance inst = make(/*max_size=*/1);  // unit-size jobs only
  const auto opt = opt_makespan(inst);
  ASSERT_TRUE(opt.has_value()) << "exact search exceeded state limit";

  const core::Schedule schedule = core::schedule_sos_unit(inst);
  expect_clean(inst, schedule);
  const Time approx = schedule.makespan();
  ASSERT_GE(approx, *opt);

  // |S| <= m/(m-1) * |OPT| + 1, exactly in rationals (m >= 2).
  const int m = inst.machines();
  EXPECT_LE(Rational(approx),
            core::unit_ratio_bound(m) * Rational(*opt) + Rational(1))
      << "m=" << m << " approx=" << approx << " OPT=" << *opt;
}

TEST_P(DifferentialSweep, ImprovedSchedulerWithinInheritedRatioOfExactOptimum) {
  const Instance inst = make(/*max_size=*/2);
  const auto opt = opt_makespan(inst);
  ASSERT_TRUE(opt.has_value()) << "exact search exceeded state limit";

  const core::Schedule schedule = core::schedule_improved(inst);
  expect_clean(inst, schedule);
  const Time approx = schedule.makespan();
  ASSERT_GE(approx, *opt);
  // Portfolio domination: never worse than the window scheduler, so the
  // Theorem 3.3 ratio carries over verbatim (m >= 3).
  EXPECT_LE(approx, core::schedule_sos(inst).makespan());
  const int m = inst.machines();
  if (m >= 3) {
    EXPECT_LE(Rational(approx),
              core::improved_ratio_bound(m) * Rational(*opt))
        << "m=" << m << " approx=" << approx << " OPT=" << *opt;
  }
}

TEST_P(DifferentialSweep, EnginesAgreeWithStepwiseExecution) {
  // fast_forward=false is the pseudo-polynomial reference form; both must
  // produce identical schedules (the fast-forward proof obligation).
  const Instance inst = make(/*max_size=*/2);
  const core::Schedule fast = core::schedule_sos(inst);
  const core::Schedule slow =
      core::schedule_sos(inst, {.fast_forward = false});
  EXPECT_EQ(fast.makespan(), slow.makespan());
  EXPECT_EQ(fast.blocks().size(), slow.blocks().size());
}

INSTANTIATE_TEST_SUITE_P(
    TinyGrid, DifferentialSweep,
    ::testing::Values(
        // m = 2: feasibility only for the general engine, full ratio for
        // the unit engine.
        DiffParam{2, 4, 5, 1}, DiffParam{2, 6, 5, 2}, DiffParam{2, 8, 4, 3},
        // m = 3: Theorem 3.3 applies (ratio 3).
        DiffParam{3, 4, 6, 4}, DiffParam{3, 6, 6, 5}, DiffParam{3, 6, 5, 6},
        DiffParam{3, 8, 4, 7}, DiffParam{3, 8, 5, 8},
        // n = 10 on the coarsest grid keeps the exact solver tractable.
        DiffParam{3, 10, 3, 9}, DiffParam{2, 10, 3, 10}),
    [](const ::testing::TestParamInfo<DiffParam>& param_info) {
      return "m" + std::to_string(std::get<0>(param_info.param)) + "_n" +
             std::to_string(std::get<1>(param_info.param)) + "_g" +
             std::to_string(std::get<2>(param_info.param)) + "_s" +
             std::to_string(std::get<3>(param_info.param));
    });

// ---- SAS (Section 4) vs exact sum of completion times ----------------------

/// (capacity, tasks, seed); m is pinned to 4, schedule_sas's minimum — the
/// Theorem 4.8 factor 2 + 4/(m−3) is then exactly 6.
using SasDiffParam = std::tuple<core::Res, int, std::uint64_t>;

class SasDifferentialSweep : public ::testing::TestWithParam<SasDiffParam> {
 protected:
  static sas::SasInstance make() {
    const auto [capacity, task_count, seed] = GetParam();
    util::Rng rng(seed);
    sas::SasInstance inst;
    inst.machines = 4;
    inst.capacity = capacity;
    for (int t = 0; t < task_count; ++t) {
      sas::Task task;
      const auto jobs = static_cast<std::size_t>(rng.uniform_int(1, 3));
      for (std::size_t j = 0; j < jobs; ++j) {
        // +2 lets some jobs exceed the capacity (multi-step jobs).
        task.requirements.push_back(rng.uniform_int(1, capacity + 2));
      }
      inst.tasks.push_back(std::move(task));
    }
    return inst;
  }
};

TEST_P(SasDifferentialSweep, SchedulerWithinTheorem48RatioOfExactOptimum) {
  const sas::SasInstance inst = make();
  const auto opt =
      exact::exact_sas_sum_completion(inst, {.max_states = 600'000});
  ASSERT_TRUE(opt.has_value()) << "exact search exceeded state limit";

  const sas::SasResult result = sas::schedule_sas(inst);
  const sas::SasValidation check = sas::validate(inst, result);
  ASSERT_TRUE(check.ok) << check.error;
  ASSERT_GE(result.sum_completion, *opt);
  // Theorem 4.8 at m = 4: sum <= 6 * OPT + k, exactly in integers.
  EXPECT_LE(result.sum_completion,
            6 * *opt + static_cast<Time>(inst.tasks.size()))
      << "sum=" << result.sum_completion << " OPT=" << *opt;
  // Lemma 4.3 must lower-bound the true optimum, not just the algorithm.
  EXPECT_LE(sas::sas_lower_bound(inst), *opt);
}

INSTANTIATE_TEST_SUITE_P(
    TinySas, SasDifferentialSweep,
    ::testing::Values(SasDiffParam{4, 1, 11}, SasDiffParam{4, 2, 12},
                      SasDiffParam{5, 2, 13}, SasDiffParam{5, 3, 14},
                      SasDiffParam{6, 2, 15}, SasDiffParam{6, 3, 16},
                      SasDiffParam{7, 3, 17}, SasDiffParam{8, 2, 18},
                      SasDiffParam{8, 3, 19}, SasDiffParam{4, 3, 20}),
    [](const ::testing::TestParamInfo<SasDiffParam>& param_info) {
      return "C" + std::to_string(std::get<0>(param_info.param)) + "_k" +
             std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

// ---- Bin packing vs exact bin count and the Corollary 3.9 equivalence ------

/// (cardinality k, capacity C, items n, seed).
using PackDiffParam = std::tuple<int, core::Res, std::size_t, std::uint64_t>;

class PackingDifferentialSweep
    : public ::testing::TestWithParam<PackDiffParam> {
 protected:
  static binpack::PackingInstance make() {
    const auto [k, capacity, n, seed] = GetParam();
    util::Rng rng(seed);
    binpack::PackingInstance inst;
    inst.capacity = capacity;
    inst.cardinality = k;
    for (std::size_t i = 0; i < n; ++i) {
      // Up to 1.5·C so some items must split across bins.
      inst.items.push_back(rng.uniform_int(1, capacity + capacity / 2));
    }
    return inst;
  }
};

TEST_P(PackingDifferentialSweep, WindowPackerEqualsUnitSosMakespan) {
  // Corollary 3.9 both ways: the window packer IS the unit-size sliding
  // window scheduler with m = k read bin-per-step, so its bin count must
  // equal that scheduler's makespan on the translated instance exactly —
  // not merely approximate it. A divergence means one side's translation
  // drifted.
  const binpack::PackingInstance inst = make();
  const binpack::Packing packing = binpack::sliding_window_packing(inst);
  const auto check = binpack::validate(inst, packing);
  ASSERT_TRUE(check.ok) << check.error;

  std::vector<core::Job> jobs;
  jobs.reserve(inst.items.size());
  for (const core::Res w : inst.items) jobs.push_back(core::Job{1, w});
  const Instance unit_inst(inst.cardinality, inst.capacity, std::move(jobs));
  const core::Schedule schedule = core::schedule_sos_unit(unit_inst);
  EXPECT_EQ(static_cast<Time>(packing.bin_count()), schedule.makespan());
}

TEST_P(PackingDifferentialSweep, EveryPackerValidatesAndRespectsExact) {
  const binpack::PackingInstance inst = make();
  const auto opt = exact::exact_bin_count(inst, {.max_states = 2'000'000});
  ASSERT_TRUE(opt.has_value()) << "exact search exceeded state limit";
  EXPECT_LE(binpack::packing_lower_bounds(inst).combined(), *opt);

  std::vector<std::pair<std::string, binpack::Packing>> packings;
  packings.emplace_back("window", binpack::sliding_window_packing(inst));
  packings.emplace_back("next_fit", binpack::next_fit_packing(inst));
  packings.emplace_back("next_fit_decreasing",
                        binpack::next_fit_packing(inst, true));
  packings.emplace_back("first_fit_decreasing",
                        binpack::first_fit_decreasing_packing(inst));
  if (inst.cardinality == 2) {
    packings.emplace_back("pairing", binpack::pairing_packing(inst));
  }
  for (const auto& [name, packing] : packings) {
    const auto check = binpack::validate(inst, packing);
    ASSERT_TRUE(check.ok) << name << ": " << check.error;
    EXPECT_GE(packing.bin_count(), *opt) << name;
  }

  // Only the window packer carries the Corollary 3.9 guarantee; the +1
  // absorbs the asymptotic additive term as in the unit-size SoS bound.
  const double bound = binpack::sliding_window_ratio_bound(inst.cardinality) *
                           static_cast<double>(*opt) +
                       1.0 + 1e-9;
  EXPECT_LE(static_cast<double>(packings.front().second.bin_count()), bound)
      << "bins " << packings.front().second.bin_count() << " vs OPT "
      << *opt;
}

INSTANTIATE_TEST_SUITE_P(
    TinyPacking, PackingDifferentialSweep,
    ::testing::Values(PackDiffParam{2, 6, 4, 31}, PackDiffParam{2, 8, 5, 32},
                      PackDiffParam{2, 10, 6, 33}, PackDiffParam{3, 6, 5, 34},
                      PackDiffParam{3, 8, 6, 35}, PackDiffParam{3, 10, 5, 36},
                      PackDiffParam{4, 8, 6, 37}, PackDiffParam{4, 10, 5, 38},
                      PackDiffParam{5, 10, 6, 39},
                      PackDiffParam{5, 12, 7, 40}),
    [](const ::testing::TestParamInfo<PackDiffParam>& param_info) {
      return "k" + std::to_string(std::get<0>(param_info.param)) + "_C" +
             std::to_string(std::get<1>(param_info.param)) + "_n" +
             std::to_string(std::get<2>(param_info.param)) + "_s" +
             std::to_string(std::get<3>(param_info.param));
    });

// ---- Improved portfolio on every generator family ---------------------------

/// (family, machines, seed): every make_instance family at the generators'
/// production capacity (10^6 units), beyond the exact solver's reach — the
/// correctness gates here are the validator and the Eq. (1) sandwich.
using FamilySanityParam = std::tuple<std::string, int, std::uint64_t>;

class ImprovedFamilySanity
    : public ::testing::TestWithParam<FamilySanityParam> {};

TEST_P(ImprovedFamilySanity, ValidatorCleanAndSandwichedByBounds) {
  const auto [family, machines, seed] = GetParam();
  workloads::SosConfig cfg;
  cfg.machines = machines;
  cfg.jobs = 96;
  cfg.max_size = 4;
  cfg.seed = seed;
  const Instance inst = workloads::make_instance(family, cfg);

  const core::Schedule schedule = core::schedule_improved(inst);
  const core::ValidationReport report = core::validate_all(inst, schedule, 16);
  EXPECT_TRUE(report.ok()) << family << ": " << report.violations.size()
                           << " violation(s), first: "
                           << (report.violations.empty()
                                   ? ""
                                   : report.violations.front().detail);
  EXPECT_GE(schedule.makespan(), core::lower_bounds(inst).combined());
  EXPECT_LE(schedule.makespan(), core::schedule_sos(inst).makespan());
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ImprovedFamilySanity,
    ::testing::Combine(::testing::ValuesIn(workloads::instance_families()),
                       ::testing::Values(2, 5, 12),
                       ::testing::Values(41u, 42u)),
    [](const ::testing::TestParamInfo<FamilySanityParam>& param_info) {
      return std::get<0>(param_info.param) + "_m" +
             std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

}  // namespace
}  // namespace sharedres
