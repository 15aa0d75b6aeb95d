#include "batch/solver.hpp"

#include <string>

#include "baselines/baselines.hpp"
#include "core/improved_scheduler.hpp"
#include "core/multires_scheduler.hpp"
#include "core/sos_scheduler.hpp"
#include "util/error.hpp"

namespace sharedres::batch {

namespace {

using core::EngineScratch;
using core::Instance;
using core::Schedule;

// The baselines keep no engine state: each assigns a fresh schedule.
constexpr Solver kSolvers[] = {
    {.name = "window", .needs_two_machines = true,
     .solve = [](const Instance& inst, Schedule& out, EngineScratch& engines) {
       core::schedule_sos(inst, out, engines);
     }},
    {.name = "unit", .needs_two_machines = true, .unit_only = true,
     .solve = [](const Instance& inst, Schedule& out, EngineScratch& engines) {
       core::schedule_sos_unit(inst, out, engines);
     }},
    {.name = "improved", .needs_two_machines = true,
     .solve = [](const Instance& inst, Schedule& out, EngineScratch& engines) {
       core::schedule_improved(inst, out, engines);
     }},
    {.name = "gg",
     .solve = [](const Instance& inst, Schedule& out, EngineScratch&) {
       out = baselines::schedule_garey_graham(inst);
     }},
    {.name = "equalsplit",
     .solve = [](const Instance& inst, Schedule& out, EngineScratch&) {
       out = baselines::schedule_equal_split(inst);
     }},
    {.name = "sequential",
     .solve = [](const Instance& inst, Schedule& out, EngineScratch&) {
       out = baselines::schedule_sequential(inst);
     }},
    {.name = "multires", .needs_two_machines = true, .multi_resource = true,
     .solve = [](const Instance& inst, Schedule& out, EngineScratch& engines) {
       core::schedule_multires(inst, out, engines);
     }},
};

}  // namespace

void Solver::check(const Instance& inst) const {
  if ((needs_two_machines && inst.machines() < 2) ||
      (unit_only && !inst.unit_size())) {
    throw util::Error::invalid_instance(
        "algorithm '" + std::string(name) + "' requires machines >= 2" +
        (unit_only ? " and unit-size jobs" : ""));
  }
  if (!multi_resource && inst.resource_count() > 1) {
    throw util::Error::invalid_instance(
        "algorithm '" + std::string(name) +
        "' requires a single resource; the instance has " +
        std::to_string(inst.resource_count()));
  }
}

std::span<const Solver> solvers() { return kSolvers; }

const Solver* find_solver(std::string_view name) {
  for (const Solver& solver : kSolvers) {
    if (solver.name == name) return &solver;
  }
  return nullptr;
}

const Solver& require_solver(std::string_view name) {
  if (const Solver* solver = find_solver(name)) return *solver;
  throw util::Error::cli("algorithm",
                         "unknown algorithm '" + std::string(name) + "'");
}

}  // namespace sharedres::batch
