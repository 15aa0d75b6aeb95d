// Reference feasibility checker for schedules, shared by
// tests/test_validator.cpp and the fuzz harnesses (fuzz_validator,
// fuzz_engine, fuzz_multires).
//
// core::validate reads a schedule block by block and keeps 64-bit
// bookkeeping. This checker states the rules of core/validator.hpp (V1-V5)
// one time step at a time instead: it expands every block into its steps,
// with no run-length shortcut, and does every sum and product in 128 bits,
// so no overflow case exists. It shares no code with src/core/validator.cpp.
// Its cost is Σ block length × jobs per block, so callers keep makespans
// small (see expandable()).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace sharedres::core::reference {

__extension__ typedef __int128 Wide;

struct Verdict {
  bool ok = true;
  std::string reason;  ///< the first broken rule, for failure messages
};

/// True when check() expands `schedule` in at most `max_cells` step-job
/// visits (empty steps count one).
inline bool expandable(const Schedule& schedule, std::int64_t max_cells) {
  Wide cells = 0;
  for (const BlockView block : schedule.blocks()) {
    const auto width = std::max<std::size_t>(block.assignments.size(), 1);
    cells += static_cast<Wide>(std::max<Time>(block.length, 0)) *
             static_cast<Wide>(width);
    if (cells > max_cells) return false;
  }
  return true;
}

inline Verdict check(const Instance& instance, const Schedule& schedule) {
  const auto fail = [](Time t, const std::string& what) {
    return Verdict{false, "step " + std::to_string(t) + ": " + what};
  };
  const std::size_t n = instance.size();
  const std::size_t axes = instance.resource_count();
  const auto m = static_cast<std::size_t>(instance.machines());

  // Per job: the step it last ran in (0 = never; equal to the current step
  // on a second appearance within it) and the units credited to it.
  std::vector<Time> last_step(n, 0);
  std::vector<Wide> credit(n, 0);
  std::vector<Wide> load(axes);

  Time t = 0;
  for (const BlockView block : schedule.blocks()) {
    if (block.length <= 0) {
      return fail(t + 1, "a block of non-positive length");
    }
    for (Time i = 0; i < block.length; ++i) {
      ++t;
      if (block.assignments.size() > m) {
        return fail(t, std::to_string(block.assignments.size()) +
                           " jobs on " + std::to_string(m) + " machines");
      }
      std::fill(load.begin(), load.end(), Wide{0});
      for (const Assignment& a : block.assignments) {
        const auto job_fail = [&](const std::string& what) {
          return fail(t, "job " + std::to_string(a.job) + what);
        };
        if (a.job >= n) return job_fail(" does not exist");
        if (last_step[a.job] == t) return job_fail(" runs twice");
        if (last_step[a.job] != 0 && last_step[a.job] != t - 1) {
          return job_fail(" resumes after a pause");
        }
        last_step[a.job] = t;
        const Res primary = instance.requirement(a.job, 0);
        if (a.share <= 0 || a.share > primary ||
            a.share > instance.capacity(0)) {
          return job_fail(" has share " + std::to_string(a.share) +
                          " outside (0, min(r_j, C)]");
        }
        credit[a.job] += a.share;
        load[0] += a.share;
        for (std::size_t k = 1; k < axes; ++k) {
          const Wide eaten =
              static_cast<Wide>(a.share) * instance.requirement(a.job, k);
          load[k] += (eaten + primary - 1) / primary;
        }
      }
      for (std::size_t k = 0; k < axes; ++k) {
        if (load[k] > instance.capacity(k)) {
          return fail(t, "axis " + std::to_string(k) + " is overused");
        }
      }
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    const Wide need = static_cast<Wide>(instance.job(j).size) *
                      instance.requirement(j, 0);
    if (credit[j] != need) {
      return Verdict{false, "job " + std::to_string(j) +
                                " does not receive exactly p_j * r_j"};
    }
  }
  return {};
}

}  // namespace sharedres::core::reference
