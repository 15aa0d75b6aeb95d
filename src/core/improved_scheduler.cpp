#include "core/improved_scheduler.hpp"

#include <stdexcept>
#include <utility>

#include "core/engine_scratch.hpp"
#include "core/sos_scheduler.hpp"
#include "obs/registry.hpp"

namespace sharedres::core {

Schedule schedule_improved(const Instance& instance,
                           const ImprovedOptions& options) {
  EngineScratch engines;
  Schedule out;
  schedule_improved(instance, out, engines, options);
  return out;
}

void schedule_improved(const Instance& instance, Schedule& out,
                       EngineScratch& engines,
                       const ImprovedOptions& options) {
  if (instance.machines() < 2) {
    throw std::invalid_argument(
        "schedule_improved requires m >= 2 (use baselines::schedule_sequential "
        "for a single machine)");
  }
  out.reset();
  if (instance.empty()) return;

  const ImprovedEngine::Params params{
      .machine_cap = static_cast<std::size_t>(instance.machines()),
      .budget = instance.capacity(),
  };
  bind_engine(engines.improved, instance, params)
      .run(out, options.fast_forward);

  // Portfolio floor: the window scheduler (and, for unit instances, its
  // unit-size variant) caps the makespan at the proven bounds. Strict `<`
  // keeps ties on the balanced schedule, so the choice is deterministic and
  // invariant under the solve cache's uniform resource scaling (makespans
  // are unchanged by it).
  const SosOptions sos_options{.fast_forward = options.fast_forward};
  Schedule& runner_up = engines.runner_up;
  schedule_sos(instance, runner_up, engines, sos_options);
  int winner = 0;
  if (runner_up.makespan() < out.makespan()) {
    std::swap(out, runner_up);
    winner = 1;
  }
  if (instance.unit_size()) {
    schedule_sos_unit(instance, runner_up, engines, sos_options);
    if (runner_up.makespan() < out.makespan()) {
      std::swap(out, runner_up);
      winner = 2;
    }
  }
  switch (winner) {
    case 0: SHAREDRES_OBS_COUNT("engine.improved.portfolio.balanced"); break;
    case 1: SHAREDRES_OBS_COUNT("engine.improved.portfolio.window"); break;
    default: SHAREDRES_OBS_COUNT("engine.improved.portfolio.unit"); break;
  }
}

util::Rational improved_ratio_bound(int machines) {
  // The portfolio's makespan is ≤ schedule_sos's on every instance, so
  // Theorem 3.3's bound is inherited verbatim.
  return sos_ratio_bound(machines);
}

util::Rational improved_target_ratio() { return util::Rational(3, 2); }

}  // namespace sharedres::core
