#include "sas/sas_scheduler.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <stdexcept>

#include "core/validator.hpp"
#include "sas/task_schedulers.hpp"
#include "util/checked.hpp"

namespace sharedres::sas {

namespace {

/// Merge two schedules over disjoint job-id spaces into one, remapping each
/// side's local flat ids through `map1` / `map2`. Blocks are split on the
/// shorter side so the result stays run-length encoded.
core::Schedule merge_schedules(const core::Schedule& s1,
                               const std::vector<core::JobId>& map1,
                               const core::Schedule& s2,
                               const std::vector<core::JobId>& map2) {
  core::Schedule out;
  const core::Schedule::BlockRange b1 = s1.blocks();
  const core::Schedule::BlockRange b2 = s2.blocks();
  std::size_t i1 = 0, i2 = 0;
  Time off1 = 0, off2 = 0;  // steps already consumed inside the current block

  auto remap = [](std::span<const core::Assignment> in,
                  const std::vector<core::JobId>& map,
                  std::vector<core::Assignment>& dst) {
    for (const core::Assignment& a : in) {
      dst.push_back(core::Assignment{map[a.job], a.share});
    }
  };

  std::vector<core::Assignment> step;
  while (i1 < b1.size() || i2 < b2.size()) {
    step.clear();
    Time len = 0;
    if (i1 < b1.size() && i2 < b2.size()) {
      len = std::min(b1[i1].length - off1, b2[i2].length - off2);
      remap(b1[i1].assignments, map1, step);
      remap(b2[i2].assignments, map2, step);
      off1 += len;
      off2 += len;
    } else if (i1 < b1.size()) {
      len = b1[i1].length - off1;
      remap(b1[i1].assignments, map1, step);
      off1 += len;
    } else {
      len = b2[i2].length - off2;
      remap(b2[i2].assignments, map2, step);
      off2 += len;
    }
    if (i1 < b1.size() && off1 == b1[i1].length) {
      ++i1;
      off1 = 0;
    }
    if (i2 < b2.size() && off2 == b2[i2].length) {
      ++i2;
      off2 = 0;
    }
    out.append(len, step);
  }
  return out;
}

}  // namespace

int sas_task_class(const Task& task, int machines, Res capacity) {
  // T ∈ T1 iff |T| / r(T) < m − 1, i.e. |T| · C < (m−1) · r(T).
  const Res lhs =
      util::mul_checked(static_cast<Res>(task.size()), capacity);
  const Res rhs = util::mul_checked(static_cast<Res>(machines - 1),
                                    task.total_requirement());
  return lhs < rhs ? 1 : 2;
}

SasResult schedule_sas(const SasInstance& instance) {
  return schedule_sas_ordered(instance, nullptr, nullptr);
}

SasResult schedule_sas_ordered(const SasInstance& instance,
                               const std::vector<std::size_t>* order_high,
                               const std::vector<std::size_t>* order_low) {
  instance.validate_input();
  const int m = instance.machines;
  if (m < 4) {
    throw std::invalid_argument("schedule_sas requires m >= 4");
  }
  const auto k = instance.tasks.size();

  SasResult result;
  result.scale = util::mul_checked(2, m - 1);
  result.completion.assign(k, 0);
  result.task_class.assign(k, 0);
  if (k == 0) return result;

  std::vector<std::size_t> idx1, idx2;
  for (std::size_t i = 0; i < k; ++i) {
    const int task_class =
        sas_task_class(instance.tasks[i], m, instance.capacity);
    result.task_class[i] = task_class;
    (task_class == 1 ? idx1 : idx2).push_back(i);
  }

  // Rescale requirements so both budgets are integral.
  auto scaled_tasks = [&](const std::vector<std::size_t>& idx) {
    std::vector<Task> out;
    out.reserve(idx.size());
    for (const std::size_t i : idx) {
      Task t;
      t.requirements.reserve(instance.tasks[i].size());
      for (const Res r : instance.tasks[i].requirements) {
        t.requirements.push_back(util::mul_checked(r, result.scale));
      }
      out.push_back(std::move(t));
    }
    return out;
  };

  const auto m1 = static_cast<std::size_t>(m / 2);
  const auto m2 = static_cast<std::size_t>(m) - m1;
  // R1 = (⌊m/2⌋−1)/(m−1) of C → 2·C·(m1−1) scaled units;
  // R2 = 1/2 of C        → C·(m−1) scaled units.
  const Res r1_budget = util::mul_checked(
      2, util::mul_checked(instance.capacity, static_cast<Res>(m1) - 1));
  const Res r2_budget = util::mul_checked(
      instance.capacity, static_cast<Res>(m) - 1);

  // Global flat ids: task by task in the instance's order.
  std::vector<std::size_t> global_offset(k);
  std::size_t off = 0;
  for (std::size_t i = 0; i < k; ++i) {
    global_offset[i] = off;
    off += instance.tasks[i].size();
  }
  auto build_map = [&](const std::vector<std::size_t>& idx,
                       const std::vector<std::size_t>& sub_offset) {
    std::vector<core::JobId> map;
    std::size_t total = 0;
    for (const std::size_t i : idx) total += instance.tasks[i].size();
    map.resize(total);
    for (std::size_t pos = 0; pos < idx.size(); ++pos) {
      const std::size_t task = idx[pos];
      for (std::size_t j = 0; j < instance.tasks[task].size(); ++j) {
        map[sub_offset[pos] + j] = global_offset[task] + j;
      }
    }
    return map;
  };

  core::Schedule sched1, sched2;
  std::vector<core::JobId> map1, map2;
  if (!idx1.empty()) {
    const TaskScheduleResult r =
        schedule_tasks_high(scaled_tasks(idx1), m1, r1_budget, order_high);
    for (std::size_t pos = 0; pos < idx1.size(); ++pos) {
      result.completion[idx1[pos]] = r.completion[pos];
    }
    map1 = build_map(idx1, r.offset);
    sched1 = r.schedule;
  }
  if (!idx2.empty()) {
    const TaskScheduleResult r =
        schedule_tasks_low(scaled_tasks(idx2), m2, r2_budget, order_low);
    for (std::size_t pos = 0; pos < idx2.size(); ++pos) {
      result.completion[idx2[pos]] = r.completion[pos];
    }
    map2 = build_map(idx2, r.offset);
    sched2 = r.schedule;
  }
  result.schedule = merge_schedules(sched1, map1, sched2, map2);

  for (const Time f : result.completion) {
    result.sum_completion = util::add_checked(result.sum_completion, f);
  }
  return result;
}

core::Instance flatten(const SasInstance& instance, Res scale) {
  std::vector<core::Job> jobs;
  jobs.reserve(instance.total_jobs());
  for (const Task& task : instance.tasks) {
    for (const Res r : task.requirements) {
      jobs.push_back(core::Job{1, util::mul_checked(r, scale)});
    }
  }
  return core::Instance(instance.machines,
                        util::mul_checked(instance.capacity, scale),
                        std::move(jobs));
}

SasValidation validate(const SasInstance& instance, const SasResult& result) {
  auto fail = [](const std::string& msg) { return SasValidation{false, msg}; };
  instance.validate_input();

  const core::Instance flat = flatten(instance, result.scale);
  // The schedule uses flat ids; the Instance sorted its jobs, so remap.
  std::vector<core::JobId> flat_to_sorted(flat.size());
  for (core::JobId sorted = 0; sorted < flat.size(); ++sorted) {
    flat_to_sorted[flat.original_id(sorted)] = sorted;
  }
  core::Schedule remapped;
  std::vector<core::Assignment> step;
  for (const core::BlockView block : result.schedule.blocks()) {
    step.clear();
    for (const core::Assignment& a : block.assignments) {
      if (a.job >= flat.size()) return fail("assignment with invalid job id");
      step.push_back(core::Assignment{flat_to_sorted[a.job], a.share});
    }
    remapped.append(block.length, step);
  }
  const core::ValidationResult core_check = core::validate(flat, remapped);
  if (!core_check.ok) return fail("core schedule check: " + core_check.error);

  // Completion times must match the schedule.
  std::vector<Time> last_step(flat.size(), 0);
  Time t = 1;
  for (const core::BlockView block : result.schedule.blocks()) {
    for (const core::Assignment& a : block.assignments) {
      last_step[a.job] = t + block.length - 1;
    }
    t += block.length;
  }
  if (result.completion.size() != instance.tasks.size()) {
    return fail("completion vector size mismatch");
  }
  std::size_t off = 0;
  Time sum = 0;
  for (std::size_t i = 0; i < instance.tasks.size(); ++i) {
    Time f = 0;
    for (std::size_t j = 0; j < instance.tasks[i].size(); ++j) {
      f = std::max(f, last_step[off + j]);
    }
    off += instance.tasks[i].size();
    if (f != result.completion[i]) {
      std::ostringstream os;
      os << "task " << i << " completes at " << f << ", reported "
         << result.completion[i];
      return fail(os.str());
    }
    sum += f;
  }
  if (sum != result.sum_completion) return fail("sum_completion mismatch");
  return {};
}

util::Rational sas_ratio_bound(int machines) {
  if (machines < 4) {
    throw std::invalid_argument("sas_ratio_bound requires m >= 4");
  }
  return util::Rational(2 * machines - 2, machines - 3);
}

}  // namespace sharedres::sas
