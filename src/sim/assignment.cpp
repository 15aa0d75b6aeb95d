#include "sim/assignment.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace sharedres::sim {

namespace {

/// Per-job [start, finish] step intervals; throws on non-contiguous runs.
void job_intervals(std::size_t num_jobs, const core::Schedule& schedule,
                   std::vector<core::Time>& start,
                   std::vector<core::Time>& finish) {
  start.assign(num_jobs, 0);
  finish.assign(num_jobs, 0);
  core::Time t = 1;
  for (const core::BlockView block : schedule.blocks()) {
    for (const core::Assignment& a : block.assignments) {
      if (a.job >= num_jobs) {
        throw std::invalid_argument("assign_machines: job id out of range");
      }
      if (start[a.job] == 0) {
        start[a.job] = t;
      } else if (finish[a.job] != t - 1) {
        throw std::invalid_argument(
            "assign_machines: job " + std::to_string(a.job) +
            " runs in non-contiguous steps (preemptive schedule)");
      }
      finish[a.job] = t + block.length - 1;
    }
    t += block.length;
  }
}

}  // namespace

MachineAssignment assign_machines(std::size_t num_jobs,
                                  const core::Schedule& schedule) {
  MachineAssignment out;
  out.machine.assign(num_jobs, -1);
  job_intervals(num_jobs, schedule, out.start, out.finish);

  // Jobs sorted by start step; greedily reuse the machine that freed up
  // earliest (optimal for interval graphs).
  std::vector<core::JobId> order;
  for (core::JobId j = 0; j < num_jobs; ++j) {
    if (out.start[j] > 0) order.push_back(j);
  }
  std::sort(order.begin(), order.end(), [&](core::JobId a, core::JobId b) {
    return out.start[a] != out.start[b] ? out.start[a] < out.start[b] : a < b;
  });

  std::vector<core::Time> machine_free;  // first step each machine is free
  for (const core::JobId j : order) {
    int chosen = -1;
    for (std::size_t machine = 0; machine < machine_free.size(); ++machine) {
      if (machine_free[machine] <= out.start[j]) {
        chosen = static_cast<int>(machine);
        break;
      }
    }
    if (chosen < 0) {
      chosen = static_cast<int>(machine_free.size());
      machine_free.push_back(0);
    }
    out.machine[j] = chosen;
    machine_free[static_cast<std::size_t>(chosen)] = out.finish[j] + 1;
  }
  out.machines_used = static_cast<int>(machine_free.size());
  return out;
}

std::string render_gantt(std::size_t num_jobs, const core::Schedule& schedule,
                         std::size_t max_width) {
  const MachineAssignment assignment = assign_machines(num_jobs, schedule);
  const auto width = static_cast<std::size_t>(
      std::min<core::Time>(schedule.makespan(),
                           static_cast<core::Time>(max_width)));
  const auto machines = static_cast<std::size_t>(assignment.machines_used);

  // grid[machine][t] = job label or '.'.
  std::vector<std::vector<std::string>> grid(
      machines, std::vector<std::string>(width, "."));
  for (core::JobId j = 0; j < num_jobs; ++j) {
    if (assignment.machine[j] < 0) continue;
    const auto m = static_cast<std::size_t>(assignment.machine[j]);
    for (core::Time t = assignment.start[j];
         t <= assignment.finish[j] &&
         t <= static_cast<core::Time>(width);
         ++t) {
      grid[m][static_cast<std::size_t>(t - 1)] = std::to_string(j % 10);
    }
  }

  std::ostringstream os;
  for (std::size_t m = 0; m < machines; ++m) {
    os << "M" << m << " |";
    for (const std::string& cell : grid[m]) os << cell;
    if (static_cast<core::Time>(width) < schedule.makespan()) os << "...";
    os << "|\n";
  }
  return os.str();
}

std::string render_utilization(const core::Schedule& schedule,
                               core::Res capacity, std::size_t max_width) {
  static constexpr char kLevels[] = {' ', '.', ':', '-', '=', '#'};
  std::ostringstream os;
  os << "|";
  std::size_t width = 0;
  for (const core::BlockView block : schedule.blocks()) {
    core::Res used = 0;
    for (const core::Assignment& a : block.assignments) used += a.share;
    const auto level = static_cast<std::size_t>(
        std::min<core::Res>(5, used * 5 / capacity));
    for (core::Time i = 0; i < block.length && width < max_width;
         ++i, ++width) {
      os << kLevels[level];
    }
    if (width >= max_width) break;
  }
  if (static_cast<core::Time>(width) < schedule.makespan()) os << "...";
  os << "|";
  return os.str();
}

}  // namespace sharedres::sim
