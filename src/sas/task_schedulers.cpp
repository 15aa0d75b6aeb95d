#include "sas/task_schedulers.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "sas/unit_task_state.hpp"
#include "util/checked.hpp"

namespace sharedres::sas {

namespace {

struct Prepared {
  std::vector<std::size_t> order;
  std::vector<std::size_t> offset;
  std::vector<UnitTaskState> states;  // indexed by input task index
};

Prepared prepare(const std::vector<Task>& tasks, bool sort_by_requirement,
                 const std::vector<std::size_t>* custom_order) {
  Prepared p;
  if (custom_order != nullptr) {
    if (custom_order->size() != tasks.size()) {
      throw std::invalid_argument("task order size mismatch");
    }
    p.order = *custom_order;
  } else {
    p.order.resize(tasks.size());
    std::iota(p.order.begin(), p.order.end(), std::size_t{0});
    if (sort_by_requirement) {
      std::stable_sort(p.order.begin(), p.order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return tasks[a].total_requirement() <
                                tasks[b].total_requirement();
                       });
    } else {
      std::stable_sort(p.order.begin(), p.order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return tasks[a].size() < tasks[b].size();
                       });
    }
  }
  p.offset.resize(tasks.size());
  std::size_t off = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    p.offset[i] = off;
    off += tasks[i].size();
  }
  p.states.reserve(tasks.size());
  for (const Task& task : tasks) p.states.emplace_back(task.requirements);
  return p;
}

void append_round(std::vector<core::Assignment>& step, std::size_t offset,
                  const UnitTaskState::Round& round) {
  for (const auto& [local, share] : round.shares) {
    step.push_back(core::Assignment{offset + local, share});
  }
}

}  // namespace

Time TaskScheduleResult::sum_completion() const {
  Time sum = 0;
  for (const Time f : completion) sum = util::add_checked(sum, f);
  return sum;
}

TaskScheduleResult schedule_tasks_high(const std::vector<Task>& tasks,
                                       std::size_t procs, Res budget,
                                       const std::vector<std::size_t>* order) {
  if (procs < 2) throw std::invalid_argument("schedule_tasks_high: procs < 2");
  if (budget < 1) throw std::invalid_argument("schedule_tasks_high: budget < 1");

  Prepared p = prepare(tasks, /*sort_by_requirement=*/true, order);
  TaskScheduleResult result;
  result.order = p.order;
  result.offset = p.offset;
  result.completion.assign(tasks.size(), 0);

  std::size_t cur = 0;  // position in p.order
  Time t = 0;
  while (cur < p.order.size()) {
    ++t;
    std::vector<core::Assignment> step;
    Res budget_left = budget;
    std::size_t procs_left = procs;
    while (budget_left >= 1 && procs_left >= 1 && cur < p.order.size()) {
      const std::size_t task = p.order[cur];
      UnitTaskState& state = p.states[task];
      const UnitTaskState::Round round = state.serve(procs_left, budget_left);
      append_round(step, p.offset[task], round);
      budget_left -= round.used;
      procs_left -= round.shares.size();
      if (!state.done()) break;  // boundary job survives; the step is full
      result.completion[task] = t;
      ++cur;  // transition: next task continues within this step
    }
    result.schedule.append(1, step);
  }
  return result;
}

TaskScheduleResult schedule_tasks_low(const std::vector<Task>& tasks,
                                      std::size_t procs, Res budget,
                                      const std::vector<std::size_t>* order) {
  if (procs < 2) throw std::invalid_argument("schedule_tasks_low: procs < 2");
  if (budget < 1) throw std::invalid_argument("schedule_tasks_low: budget < 1");

  Prepared p = prepare(tasks, /*sort_by_requirement=*/false, order);
  TaskScheduleResult result;
  result.order = p.order;
  result.offset = p.offset;
  result.completion.assign(tasks.size(), 0);

  std::size_t cur = 0;
  Time t = 0;
  while (cur < p.order.size()) {
    ++t;
    std::vector<core::Assignment> step;
    Res used = 0;
    std::size_t procs_used = 0;

    // Phase 1: absorb whole tasks while both the leftover budget and the
    // leftover processors accommodate them (Listing 4's while loop).
    while (cur < p.order.size()) {
      const std::size_t task = p.order[cur];
      UnitTaskState& state = p.states[task];
      if (util::add_checked(used, state.remaining_total()) > budget ||
          procs_used + state.remaining_jobs() > procs) {
        break;
      }
      const UnitTaskState::Round round = state.serve_all();
      append_round(step, p.offset[task], round);
      used += round.used;
      procs_used += round.shares.size();
      result.completion[task] = t;
      ++cur;
    }

    // Phase 2: serve the boundary task through a capped window.
    if (cur < p.order.size() && procs_used < procs && used < budget) {
      const std::size_t task = p.order[cur];
      UnitTaskState& state = p.states[task];
      // m' ← min{free processors, ⌊(R − used)·(m−1)/R⌋ + 1} (Listing 4).
      const Res cap_by_budget =
          util::floor_div(util::mul_checked(budget - used,
                                            static_cast<Res>(procs - 1)),
                          budget) +
          1;
      const std::size_t cap = std::min<std::size_t>(
          procs - procs_used, static_cast<std::size_t>(cap_by_budget));
      const UnitTaskState::Round round = state.serve(cap, budget - used);
      append_round(step, p.offset[task], round);
      if (state.done()) {
        result.completion[task] = t;
        ++cur;
      }
    }
    result.schedule.append(1, step);
  }
  return result;
}

}  // namespace sharedres::sas
