// The unit engine's prefix scan (core/unit_engine.hpp) against its walk. A
// fast-forward run takes the scan when n ≤ m or the m smallest r_j sum to at
// least C, and must then emit exactly what the walk emits: the schedule
// (checked against the stepwise walk on every family), the StepInfo
// sequence and every engine.unit.* counter (checked where no r_j reaches C,
// so the stepwise walk's blocks are the fast-forward walk's), around the
// regime boundary and the solo fast-forward rule. engine.unit.prefix_runs
// says which path ran, so an engine that silently always walks fails here.
// The "scalar" engine in the test names is the walk; the threaded tests
// solve side by side on parallel_for workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/engine_scratch.hpp"
#include "core/sos_scheduler.hpp"
#include "core/trace.hpp"
#include "core/validator.hpp"
#include "obs/registry.hpp"
#include "util/parallel.hpp"
#include "validator_reference.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres {
namespace {

using core::Instance;
using core::Res;
using core::Schedule;
using Counters = std::map<std::string, std::uint64_t>;

const core::SosOptions kStepwise{.fast_forward = false};

Instance unit_instance(int m, Res capacity, const std::vector<Res>& reqs) {
  std::vector<core::Job> jobs;
  for (const Res r : reqs) jobs.push_back({.size = 1, .requirement = r});
  return Instance(m, capacity, jobs);
}

/// An instance pinned to the heavy prefix regime: m·(min r_j/C) ≥ 1, so the
/// m smallest requirements already sum past C; no r_j reaches C.
Instance heavy_instance(std::size_t jobs, std::uint64_t seed) {
  workloads::SosConfig cfg;
  cfg.machines = 512;
  cfg.capacity = 1'000'000;
  cfg.jobs = jobs;
  cfg.max_size = 1;
  cfg.seed = seed;
  return workloads::uniform_instance(cfg, 0.002, 0.004);
}

/// The regime as defined, independent of the engine.
bool in_prefix_regime(const Instance& inst) {
  const auto m = static_cast<std::size_t>(inst.machines());
  if (inst.size() <= m) return true;
  Res first_window = 0;
  for (std::size_t j = 0; j < m; ++j) first_window += inst.requirements()[j];
  return first_window >= inst.capacity();
}

/// The registered engine.unit.* counters, without prefix_runs.
Counters walk_counters() {
  Counters out;
  for (const auto& metric : obs::Registry::global().metrics()) {
    if (metric.counter != nullptr &&
        metric.name.rfind("engine.unit.", 0) == 0 &&
        metric.name != "engine.unit.prefix_runs") {
      out[metric.name] = metric.counter->value();
    }
  }
  return out;
}

std::uint64_t prefix_runs() {
  return obs::Registry::global().counter("engine.unit.prefix_runs").value();
}

/// One unit run with everything it reports.
struct Observed {
  Schedule schedule;
  std::vector<core::StepInfo> steps;
  Counters counters;
  std::uint64_t prefix_runs = 0;
};

Observed observe(const Instance& inst, bool fast_forward) {
  obs::Registry::global().reset_values();
  core::RecordingObserver observer;
  Observed out;
  out.schedule = core::schedule_sos_unit(
      inst, {.fast_forward = fast_forward, .observer = &observer});
  out.steps = observer.steps();
  out.counters = walk_counters();
  out.prefix_runs = prefix_runs();
  return out;
}

void expect_same_steps(const std::vector<core::StepInfo>& got,
                       const std::vector<core::StepInfo>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "block " << i);
    const core::StepInfo& a = got[i];
    const core::StepInfo& b = want[i];
    EXPECT_EQ(a.first_step, b.first_step);
    EXPECT_EQ(a.repeat, b.repeat);
    EXPECT_EQ(a.shares, b.shares);
    EXPECT_EQ(a.window_size, b.window_size);
    EXPECT_EQ(a.window_requirement, b.window_requirement);
    EXPECT_EQ(a.left_border, b.left_border);
    EXPECT_EQ(a.right_border, b.right_border);
    EXPECT_EQ(a.step_case, b.step_case);
    EXPECT_EQ(a.fractured, b.fractured);
    EXPECT_EQ(a.extra_job_started, b.extra_job_started);
    EXPECT_EQ(a.resource_used, b.resource_used);
    EXPECT_EQ(a.full_requirement_jobs, b.full_requirement_jobs);
  }
}

/// Fast-forward vs stepwise: the same schedule, the scan exactly where the
/// regime holds, and — when no r_j reaches C, so fast-forward has no solo
/// run to collapse — the stepwise walk's StepInfo sequence and counters.
void expect_prefix_matches_walk(const Instance& inst) {
  const Observed fast = observe(inst, true);
  const Observed walk = observe(inst, false);
  EXPECT_EQ(fast.schedule, walk.schedule);
  const auto check = core::validate(inst, fast.schedule);
  EXPECT_TRUE(check.ok) << check.error;
  if (!obs::enabled()) return;
  EXPECT_EQ(fast.prefix_runs, in_prefix_regime(inst) ? 1u : 0u);
  EXPECT_EQ(walk.prefix_runs, 0u);
  Res max_r = 0;
  for (const Res r : inst.requirements()) max_r = std::max(max_r, r);
  if (max_r < inst.capacity()) {
    expect_same_steps(fast.steps, walk.steps);
    EXPECT_EQ(fast.counters, walk.counters);
  }
}

/// Solves `instances` twice each on `threads` parallel_for workers, every
/// worker with its own engine scratch.
std::vector<Schedule> solve_side_by_side(const std::vector<Instance>& instances,
                                         std::size_t threads) {
  return util::parallel_map<Schedule>(
      2 * instances.size(),
      [&](std::size_t i) {
        core::EngineScratch engines;
        Schedule out;
        core::schedule_sos_unit(instances[i % instances.size()], out, engines);
        return out;
      },
      threads);
}

TEST(ParallelUnitEngine, HeavyRegimeMatchesScalarAtEveryThreadCount) {
  const std::vector<Instance> instances = {
      heavy_instance(20'000, 11), heavy_instance(15'000, 21),
      heavy_instance(9'000, 31), heavy_instance(4'000, 41)};
  std::vector<Schedule> walks;
  for (const Instance& inst : instances) {
    walks.push_back(core::schedule_sos_unit(inst, kStepwise));
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    obs::Registry::global().reset_values();
    const std::vector<Schedule> fast = solve_side_by_side(instances, threads);
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i], walks[i % walks.size()])
          << "threads=" << threads << " solve " << i;
    }
    if (obs::enabled()) {
      // The scan must actually have produced these schedules — equality
      // that came from the walk would test nothing.
      EXPECT_EQ(prefix_runs(), fast.size()) << "threads=" << threads;
    }
  }
}

TEST(ParallelUnitEngine, HeavySchedulePassesTheValidator) {
  const Instance inst = heavy_instance(20'000, 12);
  const Schedule fast = core::schedule_sos_unit(inst);
  const auto check = core::validate(inst, fast);
  EXPECT_TRUE(check.ok) << check.error;
  const Instance small = heavy_instance(1'500, 13);
  const Schedule small_fast = core::schedule_sos_unit(small);
  ASSERT_TRUE(core::reference::expandable(small_fast, 2'000'000));
  const auto verdict = core::reference::check(small, small_fast);
  EXPECT_TRUE(verdict.ok) << verdict.reason;
}

TEST(ParallelUnitEngine, AllFamiliesMatchScalarIncludingBailFallback) {
  // Every family at machine counts on both sides of the regime: instances
  // inside it take the scan, the rest walk; either way the schedule is the
  // stepwise walk's.
  for (const int m : {2, 8, 64}) {
    for (const std::uint64_t seed : {5u, 6u}) {
      workloads::SosConfig cfg;
      cfg.machines = m;
      cfg.capacity = 1'000'000;
      cfg.jobs = 3'000;
      cfg.max_size = 1;
      cfg.seed = seed;
      std::map<std::string, Instance> families;
      for (const std::string& family : workloads::instance_families()) {
        families.emplace(family, workloads::make_instance(family, cfg));
      }
      families.emplace("front_accumulation",
                       workloads::front_accumulation_instance(cfg));
      families.emplace("heavy_uniform",
                       workloads::uniform_instance(cfg, 2.0 / m, 4.0 / m));
      for (const auto& [name, inst] : families) {
        SCOPED_TRACE(::testing::Message()
                     << name << " m=" << m << " seed=" << seed);
        expect_prefix_matches_walk(inst);
      }
    }
  }
}

TEST(ParallelUnitEngine, FrontAccumulationBailsToTheScalarEngine) {
  // Every m-window is light, so the first one slides: the engine walks.
  workloads::SosConfig cfg;
  cfg.machines = 8;
  cfg.capacity = 1'000'000;
  cfg.jobs = 3'000;
  cfg.seed = 5;
  const Instance inst = workloads::front_accumulation_instance(cfg);
  ASSERT_FALSE(in_prefix_regime(inst));
  const Observed fast = observe(inst, true);
  EXPECT_EQ(fast.schedule, core::schedule_sos_unit(inst, kStepwise));
  if (obs::enabled()) {
    EXPECT_EQ(fast.prefix_runs, 0u);
    EXPECT_GT(fast.counters.at("engine.unit.blocks"), 0u);
  }
}

TEST(ParallelUnitEngine, DeterministicMetricsAreThreadCountInvariant) {
  if (!obs::enabled()) GTEST_SKIP() << "built without SHAREDRES_OBS";
  const std::vector<Instance> instances = {heavy_instance(20'000, 13),
                                           heavy_instance(6'000, 14)};
  // Every deterministic counter after the same solves at each thread count;
  // the whole maps must agree (the engine.unit.* slice, schedule.* and the
  // parallel.* invocation counts alike).
  std::map<std::string, std::uint64_t> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    obs::Registry::global().reset_values();
    (void)solve_side_by_side(instances, threads);
    std::map<std::string, std::uint64_t> snapshot;
    for (const auto& view : obs::Registry::global().metrics()) {
      if (view.det == obs::Det::kDeterministic &&
          view.kind == obs::Kind::kCounter) {
        snapshot.emplace(view.name, view.counter->value());
      }
    }
    if (threads == 1u) {
      reference = std::move(snapshot);
      EXPECT_EQ(reference.at("engine.unit.prefix_runs"), 4u);
      EXPECT_GT(reference.at("engine.unit.blocks"), 0u);
    } else {
      EXPECT_EQ(snapshot, reference) << "threads=" << threads;
    }
  }
}

TEST(ParallelUnitEngine, EngagementPolicyGates) {
  if (!obs::enabled()) GTEST_SKIP() << "built without SHAREDRES_OBS";
  // The input decides; no option does. C = 10, m = 3: the first window
  // sums to C − 1 (walk), C and C + 1 (scan).
  const struct {
    std::vector<Res> reqs;
    bool prefix;
  } cases[] = {
      {{3, 3, 3, 5, 8}, false},
      {{3, 3, 4, 5, 8}, true},
      {{3, 4, 4, 5, 8}, true},
  };
  for (const auto& c : cases) {
    const Instance inst = unit_instance(3, 10, c.reqs);
    SCOPED_TRACE(::testing::Message() << "first window " << c.reqs[0] +
                                             c.reqs[1] + c.reqs[2]);
    expect_prefix_matches_walk(inst);
    EXPECT_EQ(observe(inst, true).prefix_runs, c.prefix ? 1u : 0u);
  }
  // An observer keeps the scan; a stepwise request always walks.
  const Instance heavy = heavy_instance(2'000, 14);
  EXPECT_EQ(observe(heavy, true).prefix_runs, 1u);
  EXPECT_EQ(observe(heavy, false).prefix_runs, 0u);
  // So does an engine that has already stepped: run() finishes the walk.
  obs::Registry::global().reset_values();
  core::UnitEngine engine(heavy);
  (void)engine.step();
  Schedule rest;
  engine.run(rest);
  EXPECT_EQ(prefix_runs(), 0u);
}

TEST(ParallelUnitEngine, RegimeHoldsAtNEqualsMAndStopsAtMPlusOne) {
  // n ≤ m is in the regime whatever the sum; at n = m + 1 the sum of the
  // first m requirements decides.
  const Instance light_n_eq_m = unit_instance(4, 10, {1, 1, 2, 2});
  const Instance heavy_n_eq_m = unit_instance(4, 10, {2, 3, 4, 12});
  const Instance light_n_m1 = unit_instance(4, 10, {1, 1, 2, 2, 9});
  const Instance heavy_n_m1 = unit_instance(4, 10, {3, 3, 3, 3, 9});
  EXPECT_TRUE(in_prefix_regime(light_n_eq_m));
  EXPECT_TRUE(in_prefix_regime(heavy_n_eq_m));
  EXPECT_FALSE(in_prefix_regime(light_n_m1));
  EXPECT_TRUE(in_prefix_regime(heavy_n_m1));
  for (const Instance* inst :
       {&light_n_eq_m, &heavy_n_eq_m, &light_n_m1, &heavy_n_m1}) {
    SCOPED_TRACE(::testing::Message() << "n=" << inst->size());
    expect_prefix_matches_walk(*inst);
  }
}

TEST(ParallelUnitEngine, SoloFastForwardAndExactCapacityJobsMatchScalar) {
  // Hand-built edge instances around the solo fast-forward branches: head
  // jobs at, above, and far above capacity, where block counts (not just
  // step contents) must match the walk's append/merge decisions.
  const Res cap = 1'000;
  for (const std::vector<Res>& reqs :
       {std::vector<Res>{cap}, std::vector<Res>{cap - 1, cap, cap + 1},
        std::vector<Res>{1, 2, 7 * cap + 3},
        std::vector<Res>{500, 500, 500, 3 * cap},
        std::vector<Res>{cap, cap, cap},
        std::vector<Res>{cap, cap + 7, 2 * cap, 5 * cap + 1},
        std::vector<Res>{cap + 1, 3 * cap, 3 * cap, 4 * cap - 1, 9 * cap}}) {
    const Instance inst = unit_instance(4, cap, reqs);
    SCOPED_TRACE(::testing::Message() << "jobs=" << reqs.size()
                                      << " r_0=" << inst.requirements()[0]);
    const Schedule fast = core::schedule_sos_unit(inst);
    const Schedule walk = core::schedule_sos_unit(inst, kStepwise);
    EXPECT_EQ(fast, walk);
    EXPECT_EQ(fast.blocks().size(), walk.blocks().size());
    expect_prefix_matches_walk(inst);
  }
}

TEST(ParallelUnitEngine, IotaRemainderAtAndAboveCapacity) {
  if (!obs::enabled()) GTEST_SKIP() << "built without SHAREDRES_OBS";
  // C = 10, m = 2. {5, 15}: the first window grants 5 + 5 and leaves ι = job
  // 1 with exactly C, which the walk runs as one ordinary step (its solo
  // rule wants a remainder strictly above C). {5, 17} leaves 12: one solo
  // fast-forward block of ⌊12/10⌋ steps, then the terminal 2.
  const Observed at = observe(unit_instance(2, 10, {5, 15}), true);
  EXPECT_EQ(at.prefix_runs, 1u);
  ASSERT_EQ(at.steps.size(), 2u);
  EXPECT_EQ(at.steps[1].fractured, std::optional<core::JobId>(1));
  EXPECT_EQ(at.steps[1].repeat, 1);
  EXPECT_EQ(at.counters.at("engine.unit.fast_forward_blocks"), 0u);
  EXPECT_EQ(at.counters.at("engine.unit.iota_resumes"), 1u);
  EXPECT_EQ(at.counters.at("engine.unit.window_rebuilds"), 1u);
  EXPECT_EQ(at.counters.at("engine.unit.fractured_handoffs"), 1u);

  const Observed above = observe(unit_instance(2, 10, {5, 17}), true);
  EXPECT_EQ(above.prefix_runs, 1u);
  ASSERT_EQ(above.steps.size(), 3u);
  EXPECT_EQ(above.steps[1].shares,
            (std::vector<core::Assignment>{{1, 10}}));
  EXPECT_EQ(above.steps[2].shares, (std::vector<core::Assignment>{{1, 2}}));
  EXPECT_EQ(above.counters.at("engine.unit.fast_forward_blocks"), 1u);
  EXPECT_EQ(above.counters.at("engine.unit.iota_resumes"), 2u);
  EXPECT_EQ(above.counters.at("engine.unit.fractured_handoffs"), 2u);
  EXPECT_EQ(above.counters.at("engine.unit.steps"), 3u);

  for (const std::vector<Res>& reqs :
       {std::vector<Res>{5, 15}, std::vector<Res>{5, 17},
        std::vector<Res>{5, 15, 20}, std::vector<Res>{5, 37, 40}}) {
    expect_prefix_matches_walk(unit_instance(2, 10, reqs));
  }
}

TEST(ParallelUnitEngine, PrefixScanReproducesTheWalksStepsAndCounters) {
  // Random small instances with every r_j below C, where the stepwise walk
  // emits the fast-forward walk's blocks: inside the regime the scan must
  // match it block for block and counter for counter.
  std::uint64_t scanned = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const int m = 2 + static_cast<int>(seed % 9);
    const Res cap = 10 + static_cast<Res>(seed % 50);
    std::vector<Res> reqs;
    const std::size_t n = 1 + seed % 37;
    for (std::size_t j = 0; j < n; ++j) {
      reqs.push_back(1 + static_cast<Res>((seed * 7919 + j * 104'729) %
                                          static_cast<std::uint64_t>(cap - 1)));
    }
    const Instance inst = unit_instance(m, cap, reqs);
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    expect_prefix_matches_walk(inst);
    if (in_prefix_regime(inst)) ++scanned;
  }
  EXPECT_GT(scanned, 100u);
}

}  // namespace
}  // namespace sharedres
