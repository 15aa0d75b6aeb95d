#include "sim/analysis.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/checked.hpp"

namespace sharedres::sim {

ScheduleStats analyze(const core::Instance& instance,
                      const core::Schedule& schedule) {
  ScheduleStats stats;
  stats.makespan = schedule.makespan();
  if (stats.makespan == 0) return stats;

  const core::Res capacity = instance.capacity();
  util::i128 used_total = 0;
  util::i128 job_steps = 0;
  std::vector<core::Time> start(instance.size(), 0);
  std::vector<core::Time> finish(instance.size(), 0);

  core::Time t = 1;
  for (const core::BlockView block : schedule.blocks()) {
    core::Res used = 0;
    for (const core::Assignment& a : block.assignments) {
      used = util::add_checked(used, a.share);
      if (a.job < instance.size()) {
        if (start[a.job] == 0) start[a.job] = t;
        finish[a.job] = t + block.length - 1;
      }
    }
    used_total += static_cast<util::i128>(used) * block.length;
    job_steps += static_cast<util::i128>(block.assignments.size()) *
                 block.length;
    if (used == capacity) stats.full_resource_steps += block.length;
    stats.max_concurrency =
        std::max(stats.max_concurrency, block.assignments.size());
    t += block.length;
  }

  const double span = static_cast<double>(stats.makespan);
  stats.mean_utilization = static_cast<double>(used_total) /
                           (static_cast<double>(capacity) * span);
  stats.mean_concurrency = static_cast<double>(job_steps) / span;
  stats.idle_capacity_units = static_cast<core::Time>(
      static_cast<util::i128>(capacity) * stats.makespan - used_total);
  for (core::JobId j = 0; j < instance.size(); ++j) {
    if (start[j] > 0) {
      stats.longest_job_span =
          std::max(stats.longest_job_span, finish[j] - start[j] + 1);
    }
  }
  return stats;
}

std::string to_string(const ScheduleStats& stats) {
  std::ostringstream os;
  os << "makespan:            " << stats.makespan << "\n"
     << "mean utilization:    " << stats.mean_utilization * 100.0 << "%\n"
     << "mean concurrency:    " << stats.mean_concurrency << "\n"
     << "max concurrency:     " << stats.max_concurrency << "\n"
     << "full-resource steps: " << stats.full_resource_steps << "\n"
     << "idle capacity:       " << stats.idle_capacity_units << " units\n"
     << "longest job span:    " << stats.longest_job_span << " steps\n";
  return os.str();
}

}  // namespace sharedres::sim
