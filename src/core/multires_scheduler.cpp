#include "core/multires_scheduler.hpp"

#include <stdexcept>
#include <string>

#include "core/engine_scratch.hpp"
#include "core/sos_scheduler.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"

namespace sharedres::core {

Schedule schedule_multires(const Instance& instance,
                           const MultiResOptions& options) {
  EngineScratch engines;
  Schedule out;
  schedule_multires(instance, out, engines, options);
  return out;
}

void schedule_multires(const Instance& instance, Schedule& out,
                       EngineScratch& engines,
                       const MultiResOptions& options) {
  if (instance.machines() < 2) {
    throw std::invalid_argument(
        "schedule_multires requires m >= 2 (use baselines::schedule_sequential "
        "for a single machine)");
  }
  out.reset();
  if (instance.empty()) return;

  if (instance.resource_count() == 1) {
    // Conservative extension: one axis IS the SoS model, so reuse the window
    // scheduler unchanged — d = 1 output is schedule-identical to
    // schedule_sos by construction, including oversized (r > C) jobs.
    SHAREDRES_OBS_COUNT("engine.multires.delegated_sos");
    schedule_sos(instance, out, engines,
                 SosOptions{.fast_forward = options.fast_forward});
    return;
  }

  // Rigid d-resource scheduling needs every job runnable at full rate.
  for (std::size_t k = 0; k < instance.resource_count(); ++k) {
    const Res* reqs = instance.axis_requirements(k);
    const Res cap = instance.capacity(k);
    for (std::size_t j = 0; j < instance.size(); ++j) {
      if (reqs[j] > cap) {
        throw util::Error::invalid_instance(
            "job " + std::to_string(j) + ": requirement " +
            std::to_string(reqs[j]) + " for resource " + std::to_string(k) +
            " exceeds its capacity " + std::to_string(cap) +
            " (rigid d-resource scheduling runs every job at full rate)");
      }
    }
  }

  SHAREDRES_OBS_COUNT("engine.multires.rigid_runs");
  const MultiResEngine::Params params{
      .machine_cap = static_cast<std::size_t>(instance.machines()),
  };
  bind_engine(engines.multires, instance, params)
      .run(out, options.fast_forward);
}

}  // namespace sharedres::core
