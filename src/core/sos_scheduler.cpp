#include "core/sos_scheduler.hpp"

#include <stdexcept>

#include "core/engine_scratch.hpp"

namespace sharedres::core {

Schedule schedule_sos(const Instance& instance, const SosOptions& options) {
  EngineScratch engines;
  Schedule out;
  schedule_sos(instance, out, engines, options);
  return out;
}

void schedule_sos(const Instance& instance, Schedule& out,
                  EngineScratch& engines, const SosOptions& options) {
  if (instance.machines() < 2) {
    throw std::invalid_argument(
        "schedule_sos requires m >= 2 (use baselines::schedule_sequential "
        "for a single machine)");
  }
  out.reset();
  if (instance.empty()) return;
  const SosEngine::Params params{
      .window_cap = static_cast<std::size_t>(instance.machines() - 1),
      .budget = instance.capacity(),
      .allow_extra_job = true,
  };
  bind_engine(engines.sos, instance, params)
      .run(out, options.fast_forward, options.observer);
}

Schedule schedule_sos_unit(const Instance& instance,
                           const SosOptions& options) {
  EngineScratch engines;
  Schedule out;
  schedule_sos_unit(instance, out, engines, options);
  return out;
}

void schedule_sos_unit(const Instance& instance, Schedule& out,
                       EngineScratch& engines, const SosOptions& options) {
  if (instance.machines() < 2) {
    throw std::invalid_argument("schedule_sos_unit requires m >= 2");
  }
  if (!instance.unit_size()) {
    throw std::invalid_argument("schedule_sos_unit requires unit-size jobs");
  }
  out.reset();
  if (instance.empty()) return;
  bind_engine(engines.unit, instance)
      .run(out, options.fast_forward, options.observer);
}

util::Rational sos_ratio_bound(int machines) {
  if (machines < 3) {
    throw std::invalid_argument("sos_ratio_bound requires m >= 3");
  }
  return util::Rational(2 * machines - 3, machines - 2);
}

util::Rational unit_ratio_bound(int machines) {
  if (machines < 2) {
    throw std::invalid_argument("unit_ratio_bound requires m >= 2");
  }
  return util::Rational(machines, machines - 1);
}

}  // namespace sharedres::core
