#include "exact/exact_sas.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "sas/sas_scheduler.hpp"
#include "util/checked.hpp"

namespace sharedres::exact {

namespace {

using core::Res;
using core::Time;

/// Trivial feasible upper bound: tasks in input order, one job at a time at
/// intake min(r, C).
Time sequential_sum(const sas::SasInstance& inst) {
  Time t = 0;
  Time sum = 0;
  for (const sas::Task& task : inst.tasks) {
    for (const Res r : task.requirements) {
      t = util::add_checked(t, util::ceil_div(r, std::min(r, inst.capacity)));
    }
    sum = util::add_checked(sum, t);
  }
  return sum;
}

class SasSearcher {
 public:
  SasSearcher(const sas::SasInstance& inst, const ExactLimits& limits)
      : inst_(inst), budget_(limits) {
    for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
      for (const Res r : inst.tasks[i].requirements) {
        task_of_.push_back(i);
        req_.push_back(r);
        rem_.push_back(r);
      }
    }
    jobs_left_.resize(inst.tasks.size());
    for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
      jobs_left_[i] = inst.tasks[i].size();
    }
    best_ = sequential_sum(inst);
    if (inst.machines >= 4) {
      best_ = std::min(best_, sas::schedule_sas(inst).sum_completion);
    }
  }

  std::optional<Time> solve() {
    if (inst_.tasks.empty()) return Time{0};
    dfs(0, 0);
    if (budget_.exhausted()) return std::nullopt;
    return best_;
  }

 private:
  [[nodiscard]] bool is_started(std::size_t j) const {
    return rem_[j] > 0 && rem_[j] != req_[j];
  }

  /// Lower bound on the total completion sum of the *unfinished* tasks,
  /// given `t` steps already elapsed: every such task ends at ≥ t+1, and
  /// the Lemma-4.3 prefix arguments apply to the remaining work. 0 exactly
  /// when every task is done.
  [[nodiscard]] Time remaining_bound(Time t) const {
    std::vector<Res> totals;
    std::vector<Res> counts;
    for (std::size_t i = 0; i < inst_.tasks.size(); ++i) {
      if (jobs_left_[i] == 0) continue;
      Res total = 0;
      for (std::size_t j = 0; j < rem_.size(); ++j) {
        if (task_of_[j] == i) total = util::add_checked(total, rem_[j]);
      }
      totals.push_back(total);
      counts.push_back(static_cast<Res>(jobs_left_[i]));
    }
    std::sort(totals.begin(), totals.end());
    std::sort(counts.begin(), counts.end());
    Time by_resource = 0;
    Res prefix = 0;
    for (const Res v : totals) {
      prefix = util::add_checked(prefix, v);
      by_resource = util::add_checked(
          by_resource, t + util::ceil_div(prefix, inst_.capacity));
    }
    Time by_slots = 0;
    prefix = 0;
    for (const Res c : counts) {
      prefix = util::add_checked(prefix, c);
      by_slots = util::add_checked(
          by_slots,
          t + util::ceil_div(prefix, static_cast<Res>(inst_.machines)));
    }
    return std::max(by_resource, by_slots);
  }

  [[nodiscard]] std::vector<Res> state_key(Time t) const {
    // Tasks are interchangeable up to their remaining multiset; jobs within
    // a task up to (r, rem).
    std::vector<std::vector<Res>> tasks(inst_.tasks.size());
    for (std::size_t j = 0; j < rem_.size(); ++j) {
      tasks[task_of_[j]].push_back(req_[j]);
      tasks[task_of_[j]].push_back(rem_[j]);
    }
    for (auto& sig : tasks) {
      // Sort (r, rem) pairs within the task.
      std::vector<std::pair<Res, Res>> pairs;
      for (std::size_t p = 0; p < sig.size(); p += 2) {
        pairs.emplace_back(sig[p], sig[p + 1]);
      }
      std::sort(pairs.begin(), pairs.end());
      sig.clear();
      for (const auto& [a, b] : pairs) {
        sig.push_back(a);
        sig.push_back(b);
      }
    }
    std::sort(tasks.begin(), tasks.end());
    std::vector<Res> key{static_cast<Res>(t)};
    for (const auto& sig : tasks) {
      key.push_back(-1);  // separator
      key.insert(key.end(), sig.begin(), sig.end());
    }
    return key;
  }

  void dfs(Time t, Time accrued) {
    if (!budget_.spend()) return;
    const Time lower = remaining_bound(t);
    if (lower == 0) {
      best_ = std::min(best_, accrued);
      return;
    }
    if (accrued + lower >= best_) return;
    if (memo_.dominated(state_key(t), accrued)) return;

    std::vector<std::size_t> started;
    std::map<std::tuple<std::size_t, Res, Res>, std::vector<std::size_t>>
        groups;
    for (std::size_t j = 0; j < rem_.size(); ++j) {
      if (rem_[j] == 0) continue;
      if (is_started(j)) {
        started.push_back(j);
      } else {
        groups[{task_of_[j], req_[j], rem_[j]}].push_back(j);
      }
    }
    for_each_step(
        started, groups, static_cast<std::size_t>(inst_.machines),
        inst_.capacity,
        [&](std::size_t j) { return std::min(rem_[j], inst_.capacity); },
        [&](std::size_t a, std::size_t b) {  // interchangeable in a group
          return task_of_[a] == task_of_[b] && req_[a] == req_[b] &&
                 rem_[a] == rem_[b];
        },
        budget_,
        [&](const std::vector<std::size_t>& active,
            const std::vector<Res>& sigma) {
          Time new_accrued = accrued;
          std::vector<std::size_t> finished;
          for (std::size_t i = 0; i < active.size(); ++i) {
            const std::size_t j = active[i];
            rem_[j] -= sigma[i];
            if (rem_[j] == 0) {
              finished.push_back(j);
              if (--jobs_left_[task_of_[j]] == 0) {
                new_accrued += t + 1;  // task completes at this step
              }
            }
          }
          dfs(t + 1, new_accrued);
          for (std::size_t i = 0; i < active.size(); ++i) {
            rem_[active[i]] += sigma[i];
          }
          for (const std::size_t j : finished) ++jobs_left_[task_of_[j]];
        });
  }

  const sas::SasInstance& inst_;
  Budget budget_;

  std::vector<std::size_t> task_of_;
  std::vector<Res> req_;
  std::vector<Res> rem_;
  std::vector<std::size_t> jobs_left_;

  Time best_ = 0;
  DominanceMemo memo_;
};

}  // namespace

std::optional<Time> exact_sas_sum_completion(const sas::SasInstance& instance,
                                             const ExactLimits& limits) {
  instance.validate_input();
  return SasSearcher(instance, limits).solve();
}

}  // namespace sharedres::exact
