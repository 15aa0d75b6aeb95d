// Exact solver for the fixed-assignment model (fixedassign/fixed_model.hpp,
// Brinkmann et al. [3]) on tiny instances: the step kernel of
// exact/search.hpp restricted to queue heads. Used to measure the greedy's
// true ratio and the price of the fixed assignment versus the paper's
// free-assignment algorithm (E9).
//
// Shares are integral in the instance's resource units, and unlike SoS this
// model can gain from finer shares: tests/test_exact_brute_force.cpp pins an
// instance whose optimum drops from 5 to 4 steps with half units. The answer
// is therefore the optimum on the instance's own grid.
#pragma once

#include <optional>

#include "core/types.hpp"
#include "exact/search.hpp"
#include "fixedassign/fixed_model.hpp"

namespace sharedres::exact {

/// Exact optimal makespan of a fixed-assignment instance, or nullopt when
/// the search exceeds limits.max_states.
[[nodiscard]] std::optional<core::Time> exact_fixed_makespan(
    const fixedassign::FixedInstance& instance,
    const ExactLimits& limits = {});

}  // namespace sharedres::exact
