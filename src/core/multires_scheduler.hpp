// Public entry point for the d-resource scheduler (DESIGN.md §16).
#pragma once

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace sharedres::core {

struct EngineScratch;

struct MultiResOptions {
  /// Skip runs of identical steps; disable to run stepwise. Both produce
  /// identical schedules (same contract as every other engine).
  bool fast_forward = true;
};

/// Schedule a d-resource instance (validator.hpp V3 semantics).
///
/// d = 1 is a conservative extension: single-axis instances are delegated to
/// `schedule_sos` verbatim, so the output is schedule-identical to the
/// SPAA-2017 window scheduler (pinned by tests/test_multires.cpp). For
/// d > 1 the rigid first-fit MultiResEngine runs; every job must satisfy
/// r_{j,k} ≤ C_k on every axis (rigid schedules grant full rate), otherwise
/// util::Error with code kInvalidInstance is thrown. Requires m ≥ 2 like
/// the other schedulers; throws std::invalid_argument otherwise.
[[nodiscard]] Schedule schedule_multires(const Instance& instance,
                                         const MultiResOptions& options = {});

/// schedule_multires into `out` (reset first), building or rebinding the
/// engine held in `engines` (core/engine_scratch.hpp). Same schedule, same
/// contract.
void schedule_multires(const Instance& instance, Schedule& out,
                       EngineScratch& engines,
                       const MultiResOptions& options = {});

}  // namespace sharedres::core
