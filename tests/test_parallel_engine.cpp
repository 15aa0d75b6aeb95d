// The descriptor-parallel unit engine (core/parallel_unit.hpp) against the
// scalar UnitEngine: bit-identical schedules at every thread count, both in
// the heavy regime the fast path is built for and on the bail families where
// it must fall back to the scalar engine; plus the engagement policy
// (parallel_threads, fast_forward) and the thread-count invariance of the
// deterministic engine.unit_par.* metrics.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/sos_scheduler.hpp"
#include "core/validator.hpp"
#include "obs/registry.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres {
namespace {

core::SosOptions parallel_options(std::size_t threads) {
  core::SosOptions options;
  options.parallel_threads = threads;
  return options;
}

/// An instance pinned to the heavy prefix-consumption regime: m·(min r_j/C)
/// ≥ 1, so every window turns heavy within ≤ m members and the skeleton
/// never bails.
core::Instance heavy_instance(std::size_t jobs, std::uint64_t seed) {
  workloads::SosConfig cfg;
  cfg.machines = 512;
  cfg.capacity = 1'000'000;
  cfg.jobs = jobs;
  cfg.max_size = 1;
  cfg.seed = seed;
  return workloads::uniform_instance(cfg, 0.002, 0.004);
}

std::uint64_t par_runs() {
  return obs::Registry::global().counter("engine.unit_par.runs").value();
}

std::uint64_t par_bailouts() {
  return obs::Registry::global().counter("engine.unit_par.bailouts").value();
}

TEST(ParallelUnitEngine, HeavyRegimeMatchesScalarAtEveryThreadCount) {
  const core::Instance inst = heavy_instance(20'000, 11);
  const core::Schedule scalar = core::schedule_sos_unit(inst);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    obs::Registry::global().reset_values();
    const core::Schedule par =
        core::schedule_sos_unit(inst, parallel_options(threads));
    EXPECT_EQ(par, scalar) << "threads=" << threads;
    if (obs::enabled()) {
      // The fast path must actually have produced this schedule — an
      // equality that came from a silent bail would test nothing.
      EXPECT_EQ(par_runs(), 1u) << "threads=" << threads;
      EXPECT_EQ(par_bailouts(), 0u) << "threads=" << threads;
    }
  }
}

TEST(ParallelUnitEngine, HeavySchedulePassesTheValidator) {
  const core::Instance inst = heavy_instance(20'000, 12);
  const core::Schedule par = core::schedule_sos_unit(inst, parallel_options(8));
  const auto check = core::validate(inst, par);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(ParallelUnitEngine, AllFamiliesMatchScalarIncludingBailFallback) {
  // Families outside the heavy regime (front_accumulation is the canonical
  // slide workload) must come out byte-identical through the bail + scalar
  // fallback; mixed families may engage or bail depending on the draw —
  // either way the schedule contract is equality.
  workloads::SosConfig cfg;
  cfg.machines = 8;
  cfg.capacity = 1'000'000;
  cfg.jobs = 3'000;
  cfg.max_size = 1;
  cfg.seed = 5;

  std::map<std::string, core::Instance> families;
  families.emplace("uniform", workloads::uniform_instance(cfg));
  families.emplace("bimodal", workloads::bimodal_instance(cfg));
  families.emplace("pareto", workloads::pareto_instance(cfg));
  families.emplace("front_accumulation",
                   workloads::front_accumulation_instance(cfg));
  families.emplace("near_boundary", workloads::near_boundary_instance(cfg));
  families.emplace("oversized", workloads::oversized_instance(cfg));

  for (const auto& [name, inst] : families) {
    const core::Schedule scalar = core::schedule_sos_unit(inst);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const core::Schedule par =
          core::schedule_sos_unit(inst, parallel_options(threads));
      EXPECT_EQ(par, scalar) << "family=" << name << " threads=" << threads;
    }
  }
}

TEST(ParallelUnitEngine, FrontAccumulationBailsToTheScalarEngine) {
  if (!obs::enabled()) GTEST_SKIP() << "built without SHAREDRES_OBS";
  workloads::SosConfig cfg;
  cfg.machines = 8;
  cfg.capacity = 1'000'000;
  cfg.jobs = 3'000;
  cfg.seed = 5;
  const core::Instance inst = workloads::front_accumulation_instance(cfg);
  obs::Registry::global().reset_values();
  (void)core::schedule_sos_unit(inst, parallel_options(8));
  EXPECT_EQ(par_runs(), 0u);
  EXPECT_EQ(par_bailouts(), 1u);
}

TEST(ParallelUnitEngine, DeterministicMetricsAreThreadCountInvariant) {
  if (!obs::enabled()) GTEST_SKIP() << "built without SHAREDRES_OBS";
  const core::Instance inst = heavy_instance(20'000, 13);

  // Snapshot every deterministic counter after a run at each thread count;
  // the whole maps must agree (not just the engine.unit_par.* slice — the
  // schedule.* merge counters and parallel.* invocation counts are part of
  // the same contract).
  std::map<std::string, std::uint64_t> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    obs::Registry::global().reset_values();
    (void)core::schedule_sos_unit(inst, parallel_options(threads));
    std::map<std::string, std::uint64_t> snapshot;
    for (const auto& view : obs::Registry::global().metrics()) {
      if (view.det == obs::Det::kDeterministic &&
          view.kind == obs::Kind::kCounter) {
        snapshot.emplace(view.name, view.counter->value());
      }
    }
    if (threads == 1u) {
      reference = std::move(snapshot);
      EXPECT_GT(reference.at("engine.unit_par.blocks"), 0u);
    } else {
      EXPECT_EQ(snapshot, reference) << "threads=" << threads;
    }
  }
}

TEST(ParallelUnitEngine, EngagementPolicyGates) {
  if (!obs::enabled()) GTEST_SKIP() << "built without SHAREDRES_OBS";
  const core::Instance inst = heavy_instance(2'000, 14);
  obs::Registry& reg = obs::Registry::global();

  // Stepwise request: the fast path only reproduces fast-forward output.
  {
    core::SosOptions options = parallel_options(8);
    options.fast_forward = false;
    reg.reset_values();
    (void)core::schedule_sos_unit(inst, options);
    EXPECT_EQ(par_runs(), 0u);
  }
  // parallel_threads = 0 (the default): never engages.
  {
    reg.reset_values();
    (void)core::schedule_sos_unit(inst);
    EXPECT_EQ(par_runs(), 0u);
    EXPECT_EQ(par_bailouts(), 0u);
  }
}

TEST(ParallelUnitEngine, SoloFastForwardAndExactCapacityJobsMatchScalar) {
  // Hand-built edge instances around the solo fast-forward branches: jobs
  // at, above, and far above capacity, where block counts (not just step
  // contents) must match the scalar engine's append/merge decisions.
  const core::Res cap = 1'000;
  for (const std::vector<core::Res>& reqs :
       {std::vector<core::Res>{cap},
        std::vector<core::Res>{cap - 1, cap, cap + 1},
        std::vector<core::Res>{1, 2, 7 * cap + 3},
        std::vector<core::Res>{500, 500, 500, 3 * cap},
        std::vector<core::Res>{cap, cap, cap}}) {
    std::vector<core::Job> jobs;
    for (const core::Res r : reqs) {
      jobs.push_back({.size = 1, .requirement = r});
    }
    const core::Instance inst(4, cap, jobs);
    const core::Schedule scalar = core::schedule_sos_unit(inst);
    for (const std::size_t threads : {1u, 2u}) {
      const core::Schedule par =
          core::schedule_sos_unit(inst, parallel_options(threads));
      EXPECT_EQ(par, scalar) << "jobs=" << reqs.size()
                             << " threads=" << threads;
      EXPECT_EQ(par.blocks().size(), scalar.blocks().size());
    }
  }
}

}  // namespace
}  // namespace sharedres
