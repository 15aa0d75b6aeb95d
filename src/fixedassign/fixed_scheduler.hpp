// Scheduler for the fixed-assignment model: schedule_fixed_greedy, a
// natural water-filling greedy in the spirit of the combinatorial algorithm
// of Brinkmann et al. [3] (which achieves 2 − 1/m in their unit-size
// setting): each step, the current queue heads are served in order of least
// remaining requirement; as many heads as possible receive their full
// remainder, the next one takes whatever is left. Finishing small heads
// first frees queues to advance, which is what keeps all processors busy.
// The model's exact optimum is exact::exact_fixed_makespan
// (src/exact/exact_fixed.hpp).
#pragma once

#include "fixedassign/fixed_model.hpp"

namespace sharedres::fixedassign {

[[nodiscard]] FixedSchedule schedule_fixed_greedy(
    const FixedInstance& instance);

}  // namespace sharedres::fixedassign
