#include "exact/exact_fixed.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "fixedassign/fixed_scheduler.hpp"
#include "util/checked.hpp"

namespace sharedres::exact {

namespace {

using core::Res;
using core::Time;
using fixedassign::FixedInstance;

struct Cursor {
  std::size_t head = 0;  // index into the queue
  Res rem = 0;           // remaining requirement of the current job
};

class FixedSearcher {
 public:
  FixedSearcher(const FixedInstance& inst, const ExactLimits& limits)
      : inst_(inst), budget_(limits) {
    cur_.resize(inst.machines());
    for (std::size_t i = 0; i < inst.machines(); ++i) {
      if (!inst.queues[i].empty()) cur_[i].rem = inst.queues[i][0];
    }
    // The greedy's makespan is a feasible upper bound.
    best_ = fixedassign::schedule_fixed_greedy(inst).makespan();
  }

  std::optional<Time> solve() {
    dfs(0);
    if (budget_.exhausted()) return std::nullopt;
    return best_;
  }

 private:
  /// 0 exactly when every queue is done: a job left means a step left.
  [[nodiscard]] Time remaining_lower_bound() const {
    Res sum = 0;
    Time per_queue = 0;
    for (std::size_t i = 0; i < inst_.machines(); ++i) {
      Res queue_rem = cur_[i].rem;
      Time jobs_left = cur_[i].rem > 0 ? 1 : 0;
      for (std::size_t h = cur_[i].head + 1; h < inst_.queues[i].size(); ++h) {
        queue_rem = util::add_checked(queue_rem, inst_.queues[i][h]);
        ++jobs_left;
      }
      sum = util::add_checked(sum, queue_rem);
      per_queue = std::max(
          per_queue, std::max(jobs_left,
                              util::ceil_div(queue_rem, inst_.capacity)));
    }
    return std::max(per_queue, util::ceil_div(sum, inst_.capacity));
  }

  [[nodiscard]] std::vector<Res> state_key() const {
    std::vector<Res> key;
    key.reserve(inst_.machines() * 2);
    for (const Cursor& c : cur_) {
      key.push_back(static_cast<Res>(c.head));
      key.push_back(c.rem);
    }
    return key;
  }

  [[nodiscard]] bool is_started(std::size_t i) const {
    return cur_[i].rem > 0 &&
           cur_[i].rem != inst_.queues[i][cur_[i].head];
  }

  void dfs(Time steps) {
    if (!budget_.spend()) return;
    const Time lower = remaining_lower_bound();
    if (lower == 0) {
      best_ = std::min(best_, steps);
      return;
    }
    if (steps + lower >= best_) return;
    if (memo_.dominated(state_key(), steps)) return;

    // Started heads must be served (σ ≥ 1); an unstarted head may idle.
    // Heads of different queues are never interchangeable.
    std::vector<std::size_t> started;
    std::map<std::size_t, std::vector<std::size_t>> unstarted;
    for (std::size_t i = 0; i < inst_.machines(); ++i) {
      if (cur_[i].rem == 0) continue;
      if (is_started(i)) {
        started.push_back(i);
      } else {
        unstarted[i] = {i};
      }
    }
    for_each_step(
        started, unstarted, inst_.machines(), inst_.capacity,
        [&](std::size_t i) { return std::min(cur_[i].rem, inst_.capacity); },
        [](std::size_t, std::size_t) { return false; }, budget_,
        [&](const std::vector<std::size_t>& chosen,
            const std::vector<Res>& sigma) {
          const std::vector<Cursor> saved = cur_;
          for (std::size_t t = 0; t < chosen.size(); ++t) {
            Cursor& c = cur_[chosen[t]];
            c.rem -= sigma[t];
            if (c.rem == 0) {
              ++c.head;
              if (c.head < inst_.queues[chosen[t]].size()) {
                c.rem = inst_.queues[chosen[t]][c.head];
              }
            }
          }
          dfs(steps + 1);
          cur_ = saved;
        });
  }

  const FixedInstance& inst_;
  Budget budget_;
  std::vector<Cursor> cur_;
  Time best_;
  DominanceMemo memo_;
};

}  // namespace

std::optional<Time> exact_fixed_makespan(const FixedInstance& instance,
                                         const ExactLimits& limits) {
  instance.validate_input();
  if (instance.total_jobs() == 0) return Time{0};
  return FixedSearcher(instance, limits).solve();
}

}  // namespace sharedres::exact
