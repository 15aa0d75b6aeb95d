// Exact solver for tiny rigid d-resource instances (the differential oracle
// behind tests/test_multires_differential.cpp and bench_multires E18).
//
// Schedule space: the rigid variant that core::MultiResEngine optimizes over
// — every running job receives exactly its full requirement vector, so job j
// occupies r_{j,k} of every axis k for exactly p_j consecutive steps, subject
// to |running| ≤ m and Σ r_{j,k} ≤ C_k per step. This is resource-constrained
// scheduling with d-dimensional resources and no precedences.
//
// Method: depth-first search over COMPLETION EVENTS. With integer processing
// times and a regular objective, some optimal rigid schedule is "active":
// every job starts at time 0 or at another job's completion (shift each start
// left until a machine/resource constraint blocks it — the blocking instant
// is a completion; the standard RCPSP normal-form argument). The search
// therefore only decides, at each event time, which subset of waiting jobs to
// start (any subset that fits beside the running set, the empty subset
// included unless nothing is running), then advances to the next completion.
// States (running multiset with remaining times + waiting set) are memoized
// on the exact remaining-makespan value, and an admissible bound on the
// remaining work prunes subtrees inside each subproblem — both keep the
// search exact. Intended for n ≲ 8 jobs with small sizes.
#pragma once

#include <optional>

#include "core/instance.hpp"
#include "core/types.hpp"
#include "exact/search.hpp"

namespace sharedres::exact {

/// Exact optimal RIGID makespan of a d-resource instance, or nullopt if the
/// search exceeds limits.max_states. Works for any d ≥ 1 and m ≥ 1; at d = 1
/// it is the rigid optimum, which is ≥ exact_makespan's sharable optimum.
/// Throws util::Error (kInvalidInstance) when some job has r_{j,k} > C_k on
/// any axis — such a job can never run at full rate, so no rigid schedule
/// exists (the same precondition schedule_multires enforces).
[[nodiscard]] std::optional<core::Time> exact_multires_makespan(
    const core::Instance& instance, const ExactLimits& limits = {});

}  // namespace sharedres::exact
