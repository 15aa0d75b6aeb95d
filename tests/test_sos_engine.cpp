// Step-level tests of the Listing-1 engine: window maximality (Lemma 3.7),
// the ≤1-fractured invariant (Observation 3.2), border monotonicity
// (Lemma 3.8), the per-step dichotomy of Theorem 3.3's proof, and
// stepwise/fast-forward equivalence.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "core/lower_bounds.hpp"
#include "core/sos_engine.hpp"
#include "core/sos_scheduler.hpp"
#include "core/validator.hpp"
#include "core/window.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres {
namespace {

using core::Instance;
using core::Job;
using core::Res;
using core::Time;

Instance small_instance() {
  // m=4, capacity 12. Mixed requirements and sizes.
  return Instance(4, 12,
                  {Job{2, 3}, Job{1, 5}, Job{3, 2}, Job{1, 9}, Job{2, 4},
                   Job{1, 7}, Job{4, 1}, Job{1, 12}});
}

TEST(SosEngine, ProducesValidScheduleOnSmallInstance) {
  const Instance inst = small_instance();
  const core::Schedule s = core::schedule_sos(inst);
  const auto check = core::validate(inst, s);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(SosEngine, StepwiseAndFastForwardAgree) {
  const Instance inst = small_instance();
  const core::Schedule fast =
      core::schedule_sos(inst, {.fast_forward = true});
  const core::Schedule slow =
      core::schedule_sos(inst, {.fast_forward = false});
  EXPECT_EQ(fast.makespan(), slow.makespan());
  EXPECT_EQ(fast, slow);
}

TEST(SosEngine, WindowIsKMaximalEveryStep) {
  const Instance inst = small_instance();
  core::SosEngine engine(
      inst, {.window_cap = 3, .budget = inst.capacity(),
             .allow_extra_job = true});
  int steps = 0;
  while (!engine.done() && steps < 10'000) {
    engine.prepare_step();
    const auto check = core::check_k_maximal(engine.snapshot());
    ASSERT_TRUE(check.ok) << "step " << steps << ": " << check.violation;
    const core::PlannedStep plan = engine.plan();
    engine.apply(plan, 1);
    ++steps;
  }
  EXPECT_TRUE(engine.done());
}

TEST(SosEngine, AtMostOneFracturedJobAfterEveryStep) {
  const Instance inst = small_instance();
  core::SosEngine engine(
      inst, {.window_cap = 3, .budget = inst.capacity(),
             .allow_extra_job = true});
  while (!engine.done()) {
    engine.step();
    int fractured = 0;
    for (core::JobId j = 0; j < inst.size(); ++j) {
      if (core::is_fractured(inst, j, engine.remaining(j))) ++fractured;
    }
    ASSERT_LE(fractured, 1);
  }
}

/// Checks, after every emitted block of a run, that each job's fractured
/// flag equals the remainder test.
class FracturedFlagCheck final : public core::StepObserver {
 public:
  FracturedFlagCheck(const Instance& inst, const core::SosEngine& engine)
      : inst_(inst), engine_(engine) {}
  void on_step(const core::StepInfo& info) override {
    for (core::JobId j = 0; j < inst_.size() && mismatch_.empty(); ++j) {
      if (engine_.fractured(j) !=
          (engine_.remaining(j) % inst_.job(j).requirement != 0)) {
        mismatch_ = "job " + std::to_string(j) + " after the block at step " +
                    std::to_string(info.first_step) + " (repeat " +
                    std::to_string(info.repeat) + ")";
      }
    }
  }
  [[nodiscard]] const std::string& mismatch() const { return mismatch_; }

 private:
  const Instance& inst_;
  const core::SosEngine& engine_;
  std::string mismatch_;
};

TEST(SosEngine, FracturedFlagEqualsTheRemainderTestAfterEveryStep) {
  // apply() refreshes a job's fractured flag only when its share is below
  // r_j, and find_fractured() reads the flags instead of dividing. After
  // every step, and after every fast-forwarded block of a run, the flag
  // must equal s_j(t) mod r_j != 0, on every generator family, strict and
  // under E6's non-strict ablations (bench_ablation).
  struct Variant {
    const char* name;
    bool grow_left, move_right, extra_job;
  };
  const Variant variants[] = {{"full", true, true, true},
                              {"no_growleft", false, true, true},
                              {"no_moveright", true, false, true},
                              {"no_extra", true, true, false}};
  std::vector<std::pair<std::string, Instance>> instances;
  for (const int m : {3, 8}) {
    workloads::SosConfig cfg;
    cfg.machines = m;
    cfg.capacity = 1000;
    cfg.jobs = 60;
    cfg.max_size = 4;
    cfg.seed = static_cast<std::uint64_t>(m);
    for (const std::string& family : workloads::instance_families()) {
      instances.emplace_back(family + "/m" + std::to_string(m),
                             workloads::make_instance(family, cfg));
    }
    instances.emplace_back("front_accumulation/m" + std::to_string(m),
                           workloads::front_accumulation_instance(cfg));
    instances.emplace_back(
        "tiny_grid/m" + std::to_string(m),
        workloads::tiny_grid_instance(m, 12, 6, 5, cfg.seed));
  }
  for (const auto& [label, inst] : instances) {
    for (const Variant& v : variants) {
      SCOPED_TRACE(label + " " + v.name);
      const bool ablated = !(v.grow_left && v.move_right && v.extra_job);
      const core::SosEngine::Params params{
          .window_cap = static_cast<std::size_t>(inst.machines() - 1),
          .budget = inst.capacity(),
          .allow_extra_job = v.extra_job,
          .grow_left = v.grow_left,
          .move_right = v.move_right,
          .strict = !ablated};
      core::SosEngine engine(inst, params);
      Time steps = 0;
      while (!engine.done()) {
        engine.step();
        ++steps;
        for (core::JobId j = 0; j < inst.size(); ++j) {
          ASSERT_EQ(engine.fractured(j),
                    engine.remaining(j) % inst.job(j).requirement != 0)
              << "job " << j << " after step " << steps;
        }
      }
      EXPECT_GT(steps, 0);

      core::SosEngine fast(inst, params);
      FracturedFlagCheck check(inst, fast);
      core::Schedule schedule;
      fast.run(schedule, /*fast_forward=*/true, &check);
      EXPECT_EQ(check.mismatch(), "");
      EXPECT_EQ(schedule.makespan(), steps);
    }
  }
}

TEST(SosEngine, PerStepDichotomyHeavyUsesFullResourceLightServesAllButOne) {
  const Instance inst = small_instance();
  core::SosEngine engine(
      inst, {.window_cap = 3, .budget = inst.capacity(),
             .allow_extra_job = true});
  while (!engine.done()) {
    const core::StepInfo info = engine.step();
    if (info.step_case == core::StepCase::kHeavy) {
      EXPECT_EQ(info.resource_used, inst.capacity())
          << "heavy step must use the full resource";
    } else {
      EXPECT_GE(info.full_requirement_jobs + 1, info.window_size)
          << "light step must serve all but one window job fully";
    }
  }
}

TEST(SosEngine, BordersAreAbsorbing) {
  const Instance inst = workloads::uniform_instance(
      {.machines = 5, .capacity = 997, .jobs = 40, .max_size = 3, .seed = 7});
  core::SosEngine engine(
      inst, {.window_cap = 4, .budget = inst.capacity(),
             .allow_extra_job = true});
  bool seen_left = false;
  bool seen_right = false;
  while (!engine.done()) {
    engine.prepare_step();
    if (seen_left) {
      EXPECT_TRUE(engine.window_left_border());
    }
    if (seen_right) {
      EXPECT_TRUE(engine.window_right_border());
    }
    seen_left = seen_left || engine.window_left_border();
    seen_right = seen_right || engine.window_right_border();
    engine.apply(engine.plan(), 1);
  }
}

TEST(SosEngine, SingleJob) {
  const Instance inst(3, 10, {Job{4, 25}});  // r > C: intake capped at C
  const core::Schedule s = core::schedule_sos(inst);
  EXPECT_TRUE(core::validate(inst, s).ok);
  EXPECT_EQ(s.makespan(), 10);  // s_j = 100 at 10 units/step
}

TEST(SosEngine, EmptyInstance) {
  const Instance inst(3, 10, {});
  const core::Schedule s = core::schedule_sos(inst);
  EXPECT_EQ(s.makespan(), 0);
  EXPECT_TRUE(core::validate(inst, s).ok);
}

TEST(SosEngine, TwoMachines) {
  const Instance inst(2, 10,
                      {Job{1, 3}, Job{2, 4}, Job{1, 11}, Job{3, 2}});
  const core::Schedule s = core::schedule_sos(inst);
  const auto check = core::validate(inst, s);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(SosEngine, MakespanNeverBelowLowerBound) {
  const Instance inst = small_instance();
  const core::Schedule s = core::schedule_sos(inst);
  EXPECT_GE(s.makespan(), core::lower_bounds(inst).combined());
}

TEST(SosEngine, RejectsSingleMachine) {
  const Instance inst(1, 10, {Job{1, 3}});
  EXPECT_THROW((void)core::schedule_sos(inst), std::invalid_argument);
}

TEST(SosEngine, ObserverDoesNotChangeEmittedSchedule) {
  // run() reuses its planned-step scratch and moves share vectors into the
  // schedule when no observer is attached; with an observer it must copy
  // instead. Either path has to emit the exact same blocks.
  {
    const Instance inst = small_instance();
    core::RecordingObserver observer;
    EXPECT_EQ(core::schedule_sos(inst, {.observer = &observer}),
              core::schedule_sos(inst));
  }
  for (const std::string& family : workloads::instance_families()) {
    workloads::SosConfig cfg;
    cfg.machines = 6;
    cfg.capacity = 10'000;
    cfg.jobs = 300;
    cfg.max_size = 4;
    cfg.seed = 5;
    const Instance inst = workloads::make_instance(family, cfg);
    core::RecordingObserver observer;
    ASSERT_EQ(core::schedule_sos(inst, {.observer = &observer}),
              core::schedule_sos(inst))
        << family;
  }
}

}  // namespace
}  // namespace sharedres
