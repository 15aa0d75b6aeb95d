// Exact SAS solver (tiny instances): minimal sum of task completion times.
//
// Same branch-and-bound skeleton as exact_sos.hpp — the step kernel of
// exact/search.hpp, non-preemptive, memoized — but the objective accumulates
// the step index whenever a task's last job finishes, and the pruning bound
// combines the accrued sum with per-task completion lower bounds on the
// remaining work. Exponential by design (SAS is strongly NP-hard; paper §2);
// use only for micro instances to measure the Theorem-4.8 algorithm's true
// ratio.
#pragma once

#include <optional>

#include "core/types.hpp"
#include "exact/search.hpp"
#include "sas/task.hpp"

namespace sharedres::exact {

/// Exact minimal Σ_i f_i, or nullopt when the search exceeds its budget.
/// Throws util::OverflowError when a sum of requirements leaves 64 bits.
[[nodiscard]] std::optional<core::Time> exact_sas_sum_completion(
    const sas::SasInstance& instance, const ExactLimits& limits = {});

}  // namespace sharedres::exact
