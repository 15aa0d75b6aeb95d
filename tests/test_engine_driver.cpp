// The run contract every engine gets from core/engine_driver.hpp, checked
// once per engine through one typed test (window, unit, balanced, rigid at
// d = 2):
//
//  * A run that throws mid-loop — an armed step fail point, or an exhausted
//    util::deadline step budget — leaves `out` exactly as it was, including
//    a block it already held, and publishes no engine.<prefix>.* counter.
//  * reset() then makes the same engine as good as a fresh one: the same
//    schedule and the same counter deltas.
//
// The step-budget variant runs in every build, so the contract is checked
// in Release too, where fail points are compiled out. A static_assert pins
// which engines take a StepObserver.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>

#include "core/improved_engine.hpp"
#include "core/instance.hpp"
#include "core/multires_engine.hpp"
#include "core/schedule.hpp"
#include "core/sos_engine.hpp"
#include "core/trace.hpp"
#include "core/unit_engine.hpp"
#include "failpoint_skip.hpp"
#include "obs/registry.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "workloads/multires_generators.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres {
namespace {

namespace fp = util::failpoint;
using core::Assignment;
using core::Instance;
using core::Schedule;
using util::ErrorCode;

workloads::SosConfig sos_config(core::Res max_size) {
  workloads::SosConfig cfg;
  cfg.machines = 4;
  cfg.capacity = 1000;
  cfg.jobs = 40;
  cfg.max_size = max_size;
  cfg.seed = 17;
  return cfg;
}

/// How to build, rebind and observe each engine.
template <class Engine>
struct EngineCase;

template <>
struct EngineCase<core::SosEngine> {
  static constexpr const char* kSite = "sos_engine.step";
  static constexpr const char* kPrefix = "engine.sos.";
  static Instance instance() {
    return workloads::make_instance("bimodal", sos_config(4));
  }
  static core::SosEngine::Params params(const Instance& inst) {
    return {.window_cap = static_cast<std::size_t>(inst.machines() - 1),
            .budget = inst.capacity()};
  }
  static core::SosEngine make(const Instance& inst) {
    return core::SosEngine(inst, params(inst));
  }
  static void reset(core::SosEngine& engine, const Instance& inst) {
    engine.reset(inst, params(inst));
  }
};

template <>
struct EngineCase<core::UnitEngine> {
  static constexpr const char* kSite = "unit_engine.step";
  static constexpr const char* kPrefix = "engine.unit.";
  static Instance instance() {
    return workloads::make_instance("uniform", sos_config(1));
  }
  static core::UnitEngine make(const Instance& inst) {
    return core::UnitEngine(inst);
  }
  static void reset(core::UnitEngine& engine, const Instance& inst) {
    engine.reset(inst);
  }
};

template <>
struct EngineCase<core::ImprovedEngine> {
  static constexpr const char* kSite = "improved_engine.step";
  static constexpr const char* kPrefix = "engine.improved.";
  static Instance instance() {
    return workloads::make_instance("bimodal", sos_config(4));
  }
  static core::ImprovedEngine::Params params(const Instance& inst) {
    return {.machine_cap = static_cast<std::size_t>(inst.machines()),
            .budget = inst.capacity()};
  }
  static core::ImprovedEngine make(const Instance& inst) {
    return core::ImprovedEngine(inst, params(inst));
  }
  static void reset(core::ImprovedEngine& engine, const Instance& inst) {
    engine.reset(inst, params(inst));
  }
};

template <>
struct EngineCase<core::MultiResEngine> {
  static constexpr const char* kSite = "multires_engine.step";
  static constexpr const char* kPrefix = "engine.multires.";
  static Instance instance() {
    workloads::MultiResConfig cfg;
    cfg.machines = 4;
    cfg.resources = 2;
    cfg.capacity = 1000;
    cfg.jobs = 40;
    cfg.max_size = 4;
    cfg.seed = 17;
    return workloads::make_multires_instance("correlated", cfg);
  }
  static core::MultiResEngine::Params params(const Instance& inst) {
    return {.machine_cap = static_cast<std::size_t>(inst.machines())};
  }
  static core::MultiResEngine make(const Instance& inst) {
    return core::MultiResEngine(inst, params(inst));
  }
  static void reset(core::MultiResEngine& engine, const Instance& inst) {
    engine.reset(inst, params(inst));
  }
};

// Only the engines that describe a step as a StepInfo take an observer; for
// the others the three-argument run() does not exist.
template <class Engine>
concept TakesObserver = requires(Engine& engine, Schedule& out,
                                 core::StepObserver* observer) {
  engine.run(out, true, observer);
};
static_assert(TakesObserver<core::SosEngine>);
static_assert(TakesObserver<core::UnitEngine>);
static_assert(!TakesObserver<core::ImprovedEngine>);
static_assert(!TakesObserver<core::MultiResEngine>);

using Counters = std::map<std::string, std::uint64_t>;

/// The non-zero counters whose name starts with `prefix`.
Counters counters(const std::string& prefix) {
  Counters out;
  for (const auto& metric : obs::Registry::global().metrics()) {
    if (metric.counter != nullptr && metric.name.rfind(prefix, 0) == 0 &&
        metric.counter->value() != 0) {
      out[metric.name] = metric.counter->value();
    }
  }
  return out;
}

Counters delta(const Counters& before, const Counters& after) {
  Counters out = after;
  for (const auto& [name, value] : before) out[name] -= value;
  return out;
}

template <class Engine>
class EngineDriverContract : public ::testing::Test {
 protected:
  using Case = EngineCase<Engine>;

  void SetUp() override { fp::reset(); }
  void TearDown() override { fp::reset(); }

  /// Runs `aborted_run` on a fresh engine into a schedule that already
  /// holds a block and expects it to throw `code` with nothing escaping;
  /// then reruns the same engine after reset() against a fresh engine.
  void expect_abort_then_clean_reuse(
      const std::function<void(Engine&, Schedule&)>& aborted_run,
      ErrorCode code) {
    const Instance inst = Case::instance();
    Schedule out;
    out.append(2, {Assignment{0, 1}});
    const Schedule before = out;
    const Counters published = counters(Case::kPrefix);

    Engine engine = Case::make(inst);
    try {
      aborted_run(engine, out);
      FAIL() << "expected the run to abort";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.code(), code) << e.what();
    }
    EXPECT_EQ(out, before) << "partially emitted schedule escaped rollback";
    EXPECT_EQ(counters(Case::kPrefix), published)
        << "a run that throws must publish nothing";

    Case::reset(engine, inst);
    Schedule reused;
    const Counters at_reuse = counters(Case::kPrefix);
    engine.run(reused);
    const Counters reused_delta = delta(at_reuse, counters(Case::kPrefix));

    Engine fresh = Case::make(inst);
    Schedule direct;
    const Counters at_fresh = counters(Case::kPrefix);
    fresh.run(direct);
    const Counters fresh_delta = delta(at_fresh, counters(Case::kPrefix));

    EXPECT_GT(direct.blocks().size(), 3u) << "the abort must land mid-run";
    EXPECT_EQ(reused, direct);
    EXPECT_EQ(reused_delta, fresh_delta);
    if (obs::enabled()) {
      EXPECT_FALSE(fresh_delta.empty());
    }
  }
};

struct EngineNames {
  template <class Engine>
  static std::string GetName(int) {
    if (std::is_same_v<Engine, core::SosEngine>) return "Window";
    if (std::is_same_v<Engine, core::UnitEngine>) return "Unit";
    if (std::is_same_v<Engine, core::ImprovedEngine>) return "Balanced";
    return "RigidD2";
  }
};

using Engines = ::testing::Types<core::SosEngine, core::UnitEngine,
                                 core::ImprovedEngine, core::MultiResEngine>;
TYPED_TEST_SUITE(EngineDriverContract, Engines, EngineNames);

TYPED_TEST(EngineDriverContract, FailpointAbortRollsBackAndPublishesNothing) {
  SKIP_WITHOUT_FAILPOINTS();
  this->expect_abort_then_clean_reuse(
      [](TypeParam& engine, Schedule& out) {
        fp::arm(EngineCase<TypeParam>::kSite, 3);
        engine.run(out);
      },
      ErrorCode::kInjectedFault);
}

TYPED_TEST(EngineDriverContract, StepBudgetAbortRollsBackAndPublishesNothing) {
  this->expect_abort_then_clean_reuse(
      [](TypeParam& engine, Schedule& out) {
        const util::deadline::Scope scope({.max_steps = 2});
        engine.run(out);
      },
      ErrorCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace sharedres
