// The exact-search kernel behind the oracles in this directory.
//
// SoS is strongly NP-hard (paper Theorem 2.1), so the oracles are
// deliberately exponential; they exist to measure true approximation ratios
// and lower-bound tightness on tiny instances. Each is a depth-first
// branch-and-bound that owns its state key, its bounds, its per-job intake
// cap, its rule for which jobs are interchangeable and the apply/undo of a
// step. What they share is here: the one ExactLimits, the state Budget, the
// DominanceMemo, and for_each_step, which enumerates one time step's
// choices for the step searches (exact_sos, exact_sas, exact_fixed).
// exact_multires branches on completion events instead of steps, so it
// takes only ExactLimits and Budget.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "util/checked.hpp"

namespace sharedres::exact {

struct ExactLimits {
  /// Abort (return nullopt) after visiting this many states.
  std::size_t max_states = 5'000'000;
};

/// Counts visited states against ExactLimits::max_states. A search
/// certifies exactly when it visits at most that many states.
class Budget {
 public:
  explicit Budget(const ExactLimits& limits)
      : max_states_(limits.max_states) {}

  /// Count one more state; false once the budget is exhausted (and from
  /// then on), so the search unwinds and its oracle answers nullopt.
  [[nodiscard]] bool spend() {
    if (!exhausted_ && ++states_ > max_states_) exhausted_ = true;
    return !exhausted_;
  }
  [[nodiscard]] bool exhausted() const { return exhausted_; }

 private:
  std::size_t max_states_;
  std::size_t states_ = 0;
  bool exhausted_ = false;
};

/// Lowest cost at which each state was reached. The rest of a search from
/// a state does not depend on the path to it, so a state reached again at a
/// cost no lower than before cannot improve the answer.
class DominanceMemo {
 public:
  /// True when `key` was reached before at a cost ≤ `cost` (prune);
  /// otherwise records `cost` for `key` and returns false.
  [[nodiscard]] bool dominated(std::vector<core::Res> key, core::Time cost) {
    const auto [it, inserted] = best_.try_emplace(std::move(key), cost);
    if (!inserted && it->second <= cost) return true;
    it->second = cost;
    return false;
  }

 private:
  std::map<std::vector<core::Res>, core::Time> best_;
};

/// Calls `step(active, sigma)` once for each choice of one time step:
/// `active` runs, job active[i] receiving the integral share sigma[i] ≥ 1.
///
///  * Every job in `started` runs (the non-preemptive searches pass the
///    jobs that have started and not finished; the preemptive one none).
///  * Unstarted jobs come in `groups`, a map from a key to a group of
///    interchangeable jobs; from each group the search takes a count,
///    always its first members. At most `machines` jobs run in all.
///  * Each resulting nonempty set gets every maximal integral share vector:
///    sigma[i] ≤ cap(active[i]), Σ sigma = min(C, Σ caps). When
///    tied(active[i-1], active[i]), the two jobs are interchangeable and
///    only sigma[i] ≤ sigma[i-1] is tried.
///
/// Started jobs come first in `active`, then each group's picks in key
/// order; larger shares are tried first. The enumeration stops once
/// `budget` is exhausted.
///
/// Exactness. The searches are exact over integral schedules — every share
/// a whole unit of the instance's grid, the schedules the engines emit and
/// the validator accepts (DESIGN.md §2) — because some optimal integral
/// schedule is "maximal" in every step: if a step had slack, a standard
/// exchange moves resource earlier without hurting feasibility (shrinking a
/// later interval never violates contiguity). Whether a finer grid could do
/// better depends on the model:
///  * preemptive: no. Once it is fixed which jobs may run in which step,
///    the feasible amounts form a flow with integral capacities, which has
///    an integral solution; a job that gets 0 in a step just does not run;
///  * non-preemptive and fixed assignment: yes. A running job needs a
///    positive share in every step of its interval, which that flow
///    argument cannot keep. tests/test_exact_brute_force.cpp pins one
///    instance per model whose optimum drops by a step with half units.
template <class Groups, class Cap, class Tied, class Step>
void for_each_step(const std::vector<std::size_t>& started,
                   const Groups& groups, std::size_t machines,
                   core::Res capacity, const Cap& cap, const Tied& tied,
                   const Budget& budget, const Step& step) {
  using core::Res;
  if (started.size() > machines) return;  // unreachable under correct use
  std::vector<std::size_t> active = started;
  std::vector<Res> caps;
  std::vector<Res> suffix;  // suffix[i] = Σ caps[i..]
  std::vector<Res> sigma;

  const auto compose = [&](const auto& self, std::size_t i, Res left) {
    if (budget.exhausted()) return;
    if (i == active.size()) {
      if (left == 0) step(active, sigma);
      return;
    }
    const auto trailing = static_cast<Res>(active.size() - i - 1);
    Res hi = std::min(caps[i], left - trailing);
    if (i > 0 && tied(active[i - 1], active[i])) {
      hi = std::min(hi, sigma[i - 1]);
    }
    // Lower limit so the jobs after i can still absorb `left`.
    const Res lo = std::max<Res>(1, left - suffix[i + 1]);
    for (Res s = hi; s >= lo; --s) {
      sigma[i] = s;
      self(self, i + 1, left - s);
    }
  };

  const auto choose = [&](const auto& self, auto group) {
    if (budget.exhausted()) return;
    if (group == groups.end()) {
      if (active.empty()) return;
      caps.resize(active.size());
      suffix.assign(active.size() + 1, 0);
      for (std::size_t i = active.size(); i-- > 0;) {
        caps[i] = cap(active[i]);
        suffix[i] = util::add_checked(suffix[i + 1], caps[i]);
      }
      const Res units = std::min(capacity, suffix[0]);
      if (units < static_cast<Res>(active.size())) return;  // σ ≥ 1 each
      sigma.assign(active.size(), 0);
      compose(compose, 0, units);
      return;
    }
    const std::vector<std::size_t>& members = group->second;
    const std::size_t max_take =
        std::min(members.size(), machines - active.size());
    for (std::size_t take = 0; take <= max_take; ++take) {
      if (take > 0) active.push_back(members[take - 1]);
      self(self, std::next(group));
    }
    active.resize(active.size() - max_take);
  };

  choose(choose, groups.begin());
}

}  // namespace sharedres::exact
