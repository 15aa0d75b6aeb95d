#include "online/online_model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/validator.hpp"
#include "util/checked.hpp"

namespace sharedres::online {

void OnlineInstance::validate_input() const {
  if (machines < 1) throw std::invalid_argument("OnlineInstance: machines < 1");
  if (capacity < 1) throw std::invalid_argument("OnlineInstance: capacity < 1");
  for (const OnlineJob& oj : jobs) {
    if (oj.release < 1) {
      throw std::invalid_argument("OnlineInstance: release < 1");
    }
    if (oj.job.size < 1 || oj.job.requirement < 1) {
      throw std::invalid_argument("OnlineInstance: malformed job");
    }
  }
}

core::Instance OnlineInstance::clairvoyant() const {
  std::vector<core::Job> plain;
  plain.reserve(jobs.size());
  for (const OnlineJob& oj : jobs) plain.push_back(oj.job);
  return core::Instance(machines, capacity, std::move(plain));
}

OnlineValidation validate(const OnlineInstance& instance,
                          const core::Schedule& schedule) {
  auto fail = [](const std::string& msg) {
    return OnlineValidation{false, msg};
  };
  instance.validate_input();

  // Core feasibility via the clairvoyant instance: its ctor sorts jobs, so
  // remap the schedule's (input-order) ids to sorted ids.
  const core::Instance flat = instance.clairvoyant();
  std::vector<core::JobId> to_sorted(flat.size());
  for (core::JobId sorted = 0; sorted < flat.size(); ++sorted) {
    to_sorted[flat.original_id(sorted)] = sorted;
  }
  core::Schedule remapped;
  std::vector<core::Assignment> step;
  for (const core::BlockView block : schedule.blocks()) {
    step.clear();
    for (const core::Assignment& a : block.assignments) {
      if (a.job >= instance.size()) return fail("invalid job id");
      step.push_back(core::Assignment{to_sorted[a.job], a.share});
    }
    remapped.append(block.length, step);
  }
  if (const auto core_check = core::validate(flat, remapped); !core_check.ok) {
    return fail("core feasibility: " + core_check.error);
  }

  // Releases respected: first step of job j is ≥ release_j.
  std::vector<core::Time> first(instance.size(), 0);
  core::Time t = 1;
  for (const core::BlockView block : schedule.blocks()) {
    for (const core::Assignment& a : block.assignments) {
      if (first[a.job] == 0) first[a.job] = t;
    }
    t += block.length;
  }
  for (std::size_t j = 0; j < instance.size(); ++j) {
    if (first[j] != 0 && first[j] < instance.jobs[j].release) {
      std::ostringstream os;
      os << "job " << j << " starts at " << first[j] << " before release "
         << instance.jobs[j].release;
      return fail(os.str());
    }
  }
  return {};
}

core::Time online_lower_bound(const OnlineInstance& instance) {
  instance.validate_input();
  core::Res total = 0;
  core::Res volume = 0;
  core::Time per_job = 0;
  for (const OnlineJob& oj : instance.jobs) {
    const core::Res s = oj.job.total_requirement();
    total = util::add_checked(total, s);
    volume = util::add_checked(volume, oj.job.size);
    const core::Res intake = std::min(oj.job.requirement, instance.capacity);
    per_job = std::max(per_job,
                       oj.release - 1 + util::ceil_div(s, intake));
  }
  return std::max({util::ceil_div(total, instance.capacity),
                   util::ceil_div(volume, static_cast<core::Res>(
                                              instance.machines)),
                   per_job});
}

}  // namespace sharedres::online
