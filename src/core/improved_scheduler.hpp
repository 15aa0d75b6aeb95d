// Public entry points for the improved-approximation scheduler
// (DESIGN.md §15; after Damerius–Kling–Schneider, arXiv 2310.05732).
#pragma once

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "util/rational.hpp"

namespace sharedres::core {

struct EngineScratch;

struct ImprovedOptions {
  /// Skip runs of identical steps; disable for the pseudo-polynomial
  /// stepwise reference. Both produce identical schedules.
  bool fast_forward = true;
};

/// The improved scheduler: a deterministic portfolio that runs the
/// balanced-admission engine (core/improved_engine.hpp) alongside the
/// SPAA-2017 sliding-window scheduler — plus the unit-size variant when it
/// applies — and keeps the schedule with the smallest makespan (ties prefer
/// the balanced engine, then the window, then the unit engine). By
/// construction its makespan never exceeds schedule_sos's, so it inherits
/// the proven 2 + 1/(m−2) bound while winning outright on the workloads the
/// improved paper targets (requirement-bimodal, heavy-tailed, oversized
/// mixes — see EXPERIMENTS.md E17). Requires m ≥ 2; throws
/// std::invalid_argument otherwise.
[[nodiscard]] Schedule schedule_improved(const Instance& instance,
                                         const ImprovedOptions& options = {});

/// schedule_improved into `out` (reset first), running every portfolio
/// member on the engines held in `engines` (core/engine_scratch.hpp) and
/// racing them through engines.runner_up. Same schedule, same contract.
void schedule_improved(const Instance& instance, Schedule& out,
                       EngineScratch& engines,
                       const ImprovedOptions& options = {});

/// The proven worst-case ratio of schedule_improved (m ≥ 3): the portfolio
/// never exceeds schedule_sos, so Theorem 3.3's 2 + 1/(m−2) carries over.
[[nodiscard]] util::Rational improved_ratio_bound(int machines);

/// The improved paper's target ratio, 3/2. We hold the portfolio to
/// makespan ≤ 3/2 · lower_bound + 1 empirically on the seeded generator
/// grid (tests/test_improved_engine.cpp) and report the measured ratios in
/// E17; it is a measured property of those families, not a theorem we
/// re-prove here.
[[nodiscard]] util::Rational improved_target_ratio();

}  // namespace sharedres::core
