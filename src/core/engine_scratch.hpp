// Reusable engine state for the scheduling facades.
//
// Each facade in sos_scheduler.hpp, improved_scheduler.hpp and
// multires_scheduler.hpp has an overload that takes an EngineScratch. It
// builds each engine it needs once, on first use, and rebinds it with
// reset() on every later call, so a caller that solves many instances (a
// batch worker) reuses every engine buffer. The value-returning facades run
// the same overload against a local scratch.
#pragma once

#include <optional>

#include "core/improved_engine.hpp"
#include "core/instance.hpp"
#include "core/multires_engine.hpp"
#include "core/schedule.hpp"
#include "core/sos_engine.hpp"
#include "core/unit_engine.hpp"

namespace sharedres::core {

struct EngineScratch {
  std::optional<SosEngine> sos;
  std::optional<UnitEngine> unit;
  std::optional<ImprovedEngine> improved;
  std::optional<MultiResEngine> multires;
  /// The improved portfolio's runner-up schedule; kept here so its block
  /// storage is reused across calls like the caller's output schedule.
  Schedule runner_up;
};

/// Bind `slot`'s engine to `instance`: construct it on first use, rebind it
/// with reset() afterwards. Returns the engine.
template <class Engine, class... Params>
Engine& bind_engine(std::optional<Engine>& slot, const Instance& instance,
                    const Params&... params) {
  if (slot) {
    slot->reset(instance, params...);
  } else {
    slot.emplace(instance, params...);
  }
  return *slot;
}

}  // namespace sharedres::core
