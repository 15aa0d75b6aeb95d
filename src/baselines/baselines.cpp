#include "baselines/baselines.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/checked.hpp"

namespace sharedres::baselines {

namespace {

using core::Assignment;
using core::Instance;
using core::JobId;
using core::Res;
using core::Schedule;
using core::Time;

std::vector<JobId> job_order(const Instance& inst, ListOrder order) {
  std::vector<JobId> ids(inst.size());
  std::iota(ids.begin(), ids.end(), JobId{0});
  switch (order) {
    case ListOrder::kInput:
      break;
    case ListOrder::kDecreasingRequirement:
      std::stable_sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
        return inst.job(a).requirement > inst.job(b).requirement;
      });
      break;
    case ListOrder::kDecreasingTotal:
      std::stable_sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
        return inst.job(a).total_requirement() >
               inst.job(b).total_requirement();
      });
      break;
  }
  return ids;
}

}  // namespace

Schedule schedule_garey_graham(const Instance& inst, ListOrder order) {
  Schedule out;
  if (inst.empty()) return out;
  const Res capacity = inst.capacity();
  const auto m = static_cast<std::size_t>(inst.machines());

  struct Running {
    JobId job;
    Time end;        // last step the job runs (1-based)
    Res rate;        // share in all steps but the last
    Res final_share; // share in step `end`
  };

  std::deque<JobId> waiting;
  for (const JobId j : job_order(inst, order)) waiting.push_back(j);
  std::vector<Running> running;
  std::vector<Assignment> step;
  Res free_res = capacity;
  Time t = 1;

  while (!waiting.empty() || !running.empty()) {
    // Admission: first-fit scan over the waiting list.
    for (auto it = waiting.begin(); it != waiting.end();) {
      if (running.size() >= m) break;
      const core::Job& job = inst.job(*it);
      const Res rate = std::min(job.requirement, capacity);
      if (rate <= free_res) {
        const Res s = job.total_requirement();
        const Time d = util::ceil_div(s, rate);
        running.push_back(
            Running{*it, t + d - 1, rate, s - rate * (d - 1)});
        free_res -= rate;
        it = waiting.erase(it);
      } else {
        ++it;
      }
    }

    // Next share change: a job entering its final (partial) step or ending.
    Time until = std::numeric_limits<Time>::max();
    for (const Running& r : running) {
      if (r.final_share != r.rate && t <= r.end - 1) {
        until = std::min(until, r.end - 1);
      }
      until = std::min(until, r.end);
    }
    const Time len = until - t + 1;

    step.clear();
    for (const Running& r : running) {
      step.push_back(Assignment{r.job, t < r.end ? r.rate : r.final_share});
    }
    out.append(len, step);
    t = until + 1;

    for (std::size_t i = running.size(); i-- > 0;) {
      if (running[i].end < t) {
        free_res += running[i].rate;
        running[i] = running.back();
        running.pop_back();
      }
    }
  }
  return out;
}

Schedule schedule_sequential(const Instance& inst) {
  Schedule out;
  for (JobId j = 0; j < inst.size(); ++j) {
    const core::Job& job = inst.job(j);
    const Res rate = std::min(job.requirement, inst.capacity());
    const Res s = job.total_requirement();
    const Time d = util::ceil_div(s, rate);
    if (d > 1) out.append(d - 1, {Assignment{j, rate}});
    out.append(1, {Assignment{j, s - rate * (d - 1)}});
  }
  return out;
}

Schedule schedule_equal_split(const Instance& inst) {
  Schedule out;
  if (inst.empty()) return out;
  const Res capacity = inst.capacity();
  const auto m = static_cast<std::size_t>(inst.machines());

  std::vector<Res> rem(inst.size());
  for (JobId j = 0; j < inst.size(); ++j) {
    rem[j] = inst.job(j).total_requirement();
  }
  std::vector<JobId> active;  // admission order preserved
  std::vector<Res> share;
  std::vector<Assignment> step;
  JobId next_job = 0;

  while (true) {
    // Keep started jobs; top up with fresh ones in input order. Never run
    // more jobs than resource units, so every active job gets a share ≥ 1
    // (a started job must progress every step — non-preemption).
    std::erase_if(active, [&](JobId j) { return rem[j] == 0; });
    const std::size_t slots =
        std::min<std::size_t>(m, static_cast<std::size_t>(
                                     std::min<Res>(capacity, static_cast<Res>(
                                                                 inst.size()))));
    while (active.size() < slots && next_job < inst.size()) {
      active.push_back(next_job++);
    }
    if (active.empty()) break;

    // Even split, capped by requirement and remaining work; greedy second
    // pass hands out whatever the caps left over.
    const Res even = capacity / static_cast<Res>(active.size());
    share.assign(active.size(), 0);
    Res left = capacity;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const JobId j = active[i];
      share[i] = std::min({even, inst.job(j).requirement, rem[j]});
      left -= share[i];
    }
    for (std::size_t i = 0; i < active.size() && left > 0; ++i) {
      const JobId j = active[i];
      const Res cap = std::min(inst.job(j).requirement, rem[j]);
      const Res extra = std::min(left, cap - share[i]);
      share[i] += extra;
      left -= extra;
    }

    step.clear();
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (share[i] > 0) {
        step.push_back(Assignment{active[i], share[i]});
        rem[active[i]] -= share[i];
      }
    }
    // A started job must progress every step; the even split guarantees it
    // (share ≥ min(1, caps) ≥ 1 whenever |active| ≤ C).
    if (step.empty()) {
      throw std::logic_error("equal_split: no progress (capacity < jobs?)");
    }
    out.append(1, step);
  }
  return out;
}

}  // namespace sharedres::baselines
