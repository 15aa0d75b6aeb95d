// The solver table: the one place an algorithm name is resolved, checked
// and dispatched (DESIGN.md §10). `solve`, `batch`, `serve`, run_batch and
// the service all look names up here; every row's solve calls the
// algorithm's one implementation, the core facade or baseline.
#pragma once

#include <span>
#include <string_view>

#include "core/engine_scratch.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace sharedres::batch {

struct Solver {
  std::string_view name;
  /// Preconditions, checked by check() before solve runs.
  bool needs_two_machines = false;
  bool unit_only = false;  ///< every unit-only row also needs two machines
  bool multi_resource = false;
  /// Solve `inst` into `out`, building or rebinding engines in `engines`.
  void (*solve)(const core::Instance& inst, core::Schedule& out,
                core::EngineScratch& engines) = nullptr;

  /// Throws util::Error (kInvalidInstance) when `inst` violates this row's
  /// preconditions: "algorithm '<name>' requires machines >= 2" (plus
  /// " and unit-size jobs" for unit-only rows), then, for single-resource
  /// rows, "algorithm '<name>' requires a single resource; the instance has
  /// <d>".
  void check(const core::Instance& inst) const;
};

/// Every row, in the order the usage text lists them.
[[nodiscard]] std::span<const Solver> solvers();

/// The row named `name`, or nullptr.
[[nodiscard]] const Solver* find_solver(std::string_view name);

/// The row named `name`; throws util::Error (kCliUsage, flag "algorithm")
/// when there is none.
[[nodiscard]] const Solver& require_solver(std::string_view name);

}  // namespace sharedres::batch
