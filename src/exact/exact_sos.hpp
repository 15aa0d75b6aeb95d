// Exact solvers for tiny SoS instances (evaluation substrate).
//
// They exist to measure true approximation ratios and lower-bound tightness
// on small instances (experiments E1/E2/E4/E8).
//
// Method: branch-and-bound over time steps (exact/search.hpp, which also
// gives the exactness argument). A state is the vector of remaining total
// requirements; each step runs one of the kernel's maximal integral
// choices. States are memoized under job-relabeling symmetry, and Eq. (1)
// on the remaining work prunes the search.
#pragma once

#include <cstddef>
#include <optional>

#include "binpack/packing.hpp"
#include "core/instance.hpp"
#include "core/types.hpp"
#include "exact/search.hpp"

namespace sharedres::exact {

/// Exact optimal makespan of the non-preemptive SoS problem, or nullopt if
/// the search exceeds the limits. Intended for n ≲ 8 jobs on coarse grids.
[[nodiscard]] std::optional<core::Time> exact_makespan(
    const core::Instance& instance, const ExactLimits& limits = {});

/// Exact optimal makespan when preemption (and migration) is allowed. For
/// unit-size jobs this equals the optimal bin count of the corresponding
/// splittable packing instance.
[[nodiscard]] std::optional<core::Time> exact_makespan_preemptive(
    const core::Instance& instance, const ExactLimits& limits = {});

/// Exact optimal bin count for splittable packing with cardinality k.
[[nodiscard]] std::optional<std::size_t> exact_bin_count(
    const binpack::PackingInstance& instance, const ExactLimits& limits = {});

}  // namespace sharedres::exact
