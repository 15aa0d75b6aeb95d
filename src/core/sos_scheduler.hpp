// Public entry points for the SoS approximation algorithms (paper Section 3).
#pragma once

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/trace.hpp"
#include "util/rational.hpp"

namespace sharedres::core {

struct EngineScratch;

struct SosOptions {
  /// Skip runs of identical steps (O((m+n)·n)); disable to run the listing's
  /// pseudo-polynomial stepwise form. Both produce identical schedules.
  bool fast_forward = true;
  /// Optional per-block instrumentation sink.
  StepObserver* observer = nullptr;
};

/// Listing 1: the 2 + 1/(m−2) approximation for jobs of arbitrary size.
/// Uses (m−1)-maximal windows and reserves the m-th processor for Case-2
/// leftovers. Requires m ≥ 2 (the ratio guarantee of Theorem 3.3 needs
/// m ≥ 3); throws std::invalid_argument otherwise.
[[nodiscard]] Schedule schedule_sos(const Instance& instance,
                                    const SosOptions& options = {});

/// schedule_sos into `out` (reset first), building or rebinding the engine
/// held in `engines` (core/engine_scratch.hpp). Same schedule, same
/// contract.
void schedule_sos(const Instance& instance, Schedule& out,
                  EngineScratch& engines, const SosOptions& options = {});

/// The Section-3 unit-size modification: m-maximal windows, the single
/// started job is treated as a job of requirement s_ι(t−1) and virtually
/// reordered. Asymptotic ratio 1 + 1/(m−1); concretely
/// |S| ≤ m/(m−1)·|OPT| + 1. Requires m ≥ 2 and all p_j = 1. With
/// fast_forward, an instance in the prefix regime (core/unit_engine.hpp) is
/// scheduled by one scan of its sorted requirements; same schedule.
[[nodiscard]] Schedule schedule_sos_unit(const Instance& instance,
                                         const SosOptions& options = {});

/// schedule_sos_unit into `out` (reset first) through `engines`.
void schedule_sos_unit(const Instance& instance, Schedule& out,
                       EngineScratch& engines, const SosOptions& options = {});

/// Theorem 3.3's ratio 2 + 1/(m−2) as an exact rational (m ≥ 3).
[[nodiscard]] util::Rational sos_ratio_bound(int machines);

/// The unit-size asymptotic ratio m/(m−1) = 1 + 1/(m−1) (m ≥ 2).
[[nodiscard]] util::Rational unit_ratio_bound(int machines);

}  // namespace sharedres::core
